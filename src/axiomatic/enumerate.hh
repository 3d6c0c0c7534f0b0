/**
 * @file
 * The shared candidate-enumeration core for axiomatic-style engines.
 *
 * Both the hand-coded Figure-15 checker (axiomatic/checker.hh) and the
 * cat DSL engine (cat/engine.hh) decide a litmus test by scoring
 * *candidate executions*: a read-from map (which store each load reads)
 * plus one total coherence order per address.  This file owns the
 * machinery that produces those candidates:
 *
 *  - CandidateBuilder runs the cross-thread value fixpoint that turns
 *    one read-from guess into committed thread traces (or rejects it as
 *    value-inconsistent), and computes the static per-load feasible
 *    source sets that let the search skip read-from maps whose
 *    addresses can never match.  The builder is immutable after
 *    construction; each call works in a caller-owned
 *    CandidateBuilder::Scratch, so workers share one builder.
 *
 *  - CandidateEnumerator drives the search.  The default, incremental
 *    mode follows herd-style tools (Alglave et al., Herding Cats):
 *    coherence orders grow one store at a time, the model's ordering
 *    constraints are maintained online, and the search backtracks the
 *    moment a partial candidate can no longer be completed legally --
 *    pruning whole factorial subtrees instead of materializing them.
 *    Top-level read-from prefixes are searched in parallel on the
 *    shared ThreadPool.  Each rf range -- the whole stream when the
 *    search is serial, one top-level prefix otherwise -- owns a
 *    scratch and derived tables, rebuilding the per-shape ones (store
 *    sets per address, suffix counts) only when the shape epoch
 *    moves; once warm it allocates nothing per rf map.
 *
 *  - IncrementalFilter is how a model plugs into the pruned search:
 *    monotone "can any completion still pass?" callbacks at each
 *    extension step, plus an exact verdict at complete candidates.
 *    The hand-coded axioms implement it with an incrementally
 *    maintained constraint closure (checker.cc); the cat engine with
 *    monotone partial evaluation of the model file (cat/engine.cc).
 *
 * The enumerate-then-check pipeline this replaces survives as
 * Checker::enumerateLegacy() for differential validation and the
 * pruning benchmarks.
 */

#ifndef GAM_AXIOMATIC_ENUMERATE_HH
#define GAM_AXIOMATIC_ENUMERATE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "isa/instruction.hh"
#include "isa/mem_image.hh"
#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "model/kind.hh"
#include "model/trace.hh"

namespace gam::axiomatic
{

/** Checker knobs. */
struct Options
{
    /**
     * Drop the InstOrder axiom (keep LoadValue only).  Used to
     * demonstrate that LoadValue alone admits out-of-thin-air behaviors
     * (Section II-C): "allowing all load/store reorderings [by] simply
     * removing the InstOrderSC axiom ... would [make OOTA] legal".
     */
    bool enforceInstOrder = true;

    /**
     * Values to try for loads whose value stays undetermined because of
     * a cyclic rf (out-of-thin-air candidates).  Empty: such candidates
     * are discarded, which is sound for every supported model.
     */
    std::vector<isa::Value> seedValues;

    /**
     * Worker threads for the incremental search (1 = serial, 0 =
     * hardware concurrency).  The search is split over top-level
     * read-from prefixes; the merged outcome set and counters are
     * deterministic regardless of the worker count, so this knob never
     * affects a decision.
     */
    unsigned searchThreads = 1;
};

/**
 * @p options with seedValues defaulted to the constants of @p test's
 * condition (when not already set): the seeding Checker::isAllowed()
 * applies so OOTA-style queries are decided by the axioms rather than
 * by omission.  Shared with harness::decide() so the two paths can
 * never diverge.
 */
Options withConditionSeeds(const litmus::LitmusTest &test,
                           Options options);

/** Counters describing one enumeration run. */
struct CheckerStats
{
    uint64_t rfCandidates = 0;      ///< read-from maps tried
    uint64_t valueConsistent = 0;   ///< ... passing the value fixpoint
    uint64_t coCandidates = 0;      ///< complete (rf, co) candidates checked
    uint64_t accepted = 0;          ///< ... that were legal
    uint64_t valueCycles = 0;       ///< rf maps with undetermined values
    /**
     * Value-consistent rf maps whose shape (executed instruction path
     * or a resolved address) differed from the previous one's, so the
     * walk rebuilt its per-shape tables.  rf_candidates over this is
     * the reuse rate of those tables.  Every rf range starts cold, so
     * a parallel search (searchThreads > 1, one range per prefix)
     * counts more of them than a serial one.
     */
    uint64_t shapeChanges = 0;

    // Incremental-search counters (zero on the legacy path).
    /** rf maps skipped outright by static address feasibility. */
    uint64_t rfStaticSkipped = 0;
    /** rf candidates whose whole coherence search was pruned upfront. */
    uint64_t rfPruned = 0;
    /** Partial coherence extensions rejected by the filter. */
    uint64_t partialsPruned = 0;
    /** Complete candidates never materialized thanks to the pruning. */
    uint64_t subtreesSkipped = 0;
    /** Deepest store placement a backtrack retreated from. */
    uint64_t maxBacktrackDepth = 0;

    /** this += other (maxBacktrackDepth by max); parallel merge. */
    void merge(const CheckerStats &other);
};

/**
 * One memory event of a candidate execution: an executed load/store
 * with resolved address, in committed trace order per thread.  RMWs
 * are a single event that is both a load and a store.
 */
struct CandidateEvent
{
    int tid;
    int traceIdx;        ///< index into the thread's committed trace
    bool isStore;
    bool isLoad;         ///< RMWs are both
    isa::Addr addr;
    isa::Value value;    ///< value the event supplies to memory/readers
    model::StoreId sid;  ///< store side: own id (InitStore otherwise)
    model::StoreId rf;   ///< load side: read-from source (or InitStore)
    /** Load side: the event index of the rf source; -1 = initial. */
    int rfEvent = -1;
};

/**
 * Per-address coherence orders, flat.  The addresses are those at least
 * one store event writes, in ascending order; address i owns one slot
 * range sized to its store count, which holds two lists:
 *
 *  - stores(i): the address's full store set, as event indices in
 *    event order -- fixed for a whole shape (see CandidateExecution);
 *  - order(i): its coherence order, first to last.  During the
 *    incremental search it is a prefix of a permutation of stores(i);
 *    at complete candidates, the whole permutation.
 *
 * Storage is kept across assign() calls, so a table reused across rf
 * maps allocates only when a test has more stores than any before.
 */
class CoOrder
{
  public:
    /** Rebuild the address table from @p events; every order empty. */
    void assign(const std::vector<CandidateEvent> &events);

    /** Number of addresses written by some store. */
    size_t size() const { return _addrs.size(); }
    isa::Addr addr(size_t i) const { return _addrs[i]; }

    /** Index of address @p a, or -1 when no store writes it. */
    int
    indexOf(isa::Addr a) const
    {
        for (size_t i = 0; i < _addrs.size(); ++i)
            if (_addrs[i] == a)
                return int(i);
        return -1;
    }

    /** First slot of address @p i (slots are in address order). */
    size_t slot(size_t i) const { return _begin[i]; }
    /** Total slots: the number of store events. */
    size_t slots() const { return _stores.size(); }

    std::span<const int>
    stores(size_t i) const
    {
        return {_stores.data() + _begin[i], _begin[i + 1] - _begin[i]};
    }

    std::span<const int>
    order(size_t i) const
    {
        return {_order.data() + _begin[i], _len[i]};
    }

    /** The order of address @p a; empty when no store writes it. */
    std::span<const int>
    of(isa::Addr a) const
    {
        const int i = indexOf(a);
        return i < 0 ? std::span<const int>{} : order(size_t(i));
    }

    /** Append event @p event to address @p i's order. */
    void push(size_t i, int event) { _order[_begin[i] + _len[i]++] = event; }
    /** Drop the last entry of address @p i's order. */
    void pop(size_t i) { --_len[i]; }

    /**
     * Place every store of address @p i, in event order, and return
     * the order for in-place permutation (the legacy pipeline's
     * std::next_permutation walk).
     */
    std::span<int> placeAll(size_t i);

  private:
    std::vector<isa::Addr> _addrs;
    /** Slot range of address i: [_begin[i], _begin[i + 1]). */
    std::vector<uint32_t> _begin;
    /** Placed entries per address. */
    std::vector<uint32_t> _len;
    std::vector<int> _stores;
    std::vector<int> _order;
};

/**
 * One candidate execution: the committed thread traces plus one
 * read-from map and per-address coherence orders.  This is the domain
 * over which relational (cat-style) model engines evaluate their
 * axioms; the hand-coded checker scores exactly the same candidates,
 * so engines built on the enumerator are verdict-comparable by
 * construction.
 *
 * During the incremental search the coherence orders are *prefixes*
 * (`complete == false`): every placed pair is final -- a store is only
 * ever appended after the existing prefix -- but unplaced stores are
 * absent.  Relations derived from coOrder on a partial candidate are
 * therefore monotone underapproximations of every completion.
 *
 * All references point into enumeration-owned storage and are valid
 * only for the duration of one filter callback.
 */
struct CandidateExecution
{
    /** All memory events, thread-major, trace order within a thread. */
    const std::vector<CandidateEvent> &events;
    /** Coherence order per address, ascending address order. */
    const CoOrder &coOrder;
    /** Committed per-thread traces (fences/branches included). */
    const std::vector<const model::Trace *> &traces;
    /**
     * Increments once per read-from candidate.  events, traces and
     * every event's rf are reused across the coherence orders sharing
     * an epoch -- only coOrder changes -- so callers may cache
     * trace-derived data (program order, dependencies) keyed on it.
     */
    uint64_t rfEpoch;
    /**
     * Changes only when the *shape* changes: the executed instruction
     * path of some thread or a resolved address
     * (CandidateBuilder::Scratch::shapeEpoch).  Candidates with equal
     * shape epochs have the same traces up to data values, the same
     * events up to value and rf, and the same coOrder store sets.
     * Like rfEpoch, it is unique within one filter's candidate
     * stream, not across streams.
     */
    uint64_t shapeEpoch;
    /** False while coOrder still holds prefixes (see above). */
    bool complete = true;
};

/**
 * Accept/reject one complete candidate execution.  Returning true
 * records the candidate's outcome exactly as the built-in axioms
 * would.
 */
using CandidateFilter = std::function<bool(const CandidateExecution &)>;

/**
 * A model's hooks into the incremental pruned search.  All three
 * predicate callbacks must be *monotone*: returning false asserts that
 * no completion of the partial candidate can pass, so the enumerator
 * may skip the whole subtree.  A filter that cannot prove anything
 * early simply returns true until accept().
 *
 * Callbacks arrive strictly nested: beginRf() once per value-consistent
 * read-from candidate, then pushStore()/popStore() bracketing each
 * coherence extension (popStore is called even when the matching
 * pushStore returned false, so filters can restore snapshots
 * unconditionally), and accept() at complete leaves.
 */
class IncrementalFilter
{
  public:
    virtual ~IncrementalFilter() = default;

    /**
     * A new read-from candidate; @p partial has empty coherence
     * orders.  False prunes every coherence completion.
     */
    virtual bool beginRf(const CandidateExecution &partial)
    {
        (void)partial;
        return true;
    }

    /**
     * Event @p eventIdx was appended to @p addr's coherence order (it
     * is the last entry).  False prunes the subtree rooted here.
     */
    virtual bool pushStore(const CandidateExecution &partial,
                           isa::Addr addr, int eventIdx)
    {
        (void)partial;
        (void)addr;
        (void)eventIdx;
        return true;
    }

    /** Backtrack the matching pushStore(). */
    virtual void popStore(const CandidateExecution &partial,
                          isa::Addr addr, int eventIdx)
    {
        (void)partial;
        (void)addr;
        (void)eventIdx;
    }

    /** Exact verdict for a complete candidate. */
    virtual bool accept(const CandidateExecution &candidate) = 0;
};

/**
 * Makes one filter per search worker.  Filters are stateful (they
 * track the current partial candidate), so parallel workers cannot
 * share one; each factory product only ever sees callbacks from a
 * single worker, in nesting order.
 */
using FilterFactory =
    std::function<std::unique_ptr<IncrementalFilter>()>;

/**
 * Builds candidate executions for one litmus test: the value fixpoint
 * turning a read-from map into committed traces, and the static
 * feasibility analysis bounding each load's possible sources.
 *
 * Thread programs must be loop-free (forward branches only): then
 * every static instruction executes at most once and rf can be indexed
 * statically.
 */
class CandidateBuilder
{
  public:
    /** Per-thread symbolic execution state for one rf candidate. */
    struct ThreadExec
    {
        /** Reached the end of the program (no value-blocked branch). */
        bool complete = false;
        /** Static indices of executed instructions, in order. */
        std::vector<int> executedIdx;
        /** Committed trace (parallel to executedIdx). */
        model::Trace trace;
        /** rf per trace entry (loads only; InitStore elsewhere). */
        model::RfMap rfTrace;
        /** Final register values (all known when complete). */
        std::array<std::optional<isa::Value>, isa::NUM_REGS> regs;
    };

    /**
     * Caller-owned working memory and result of computeExecution().
     * The builder keeps nothing per call, so workers share one
     * builder and each owns a Scratch (the enumerator keeps one per rf
     * range it searches); a Scratch must not be used by two threads at
     * once.  It may be reused across builders, i.e. tests of any size:
     * the first call under a new builder resets it.  Every buffer
     * keeps its capacity, so once warm a call allocates nothing.
     */
    struct Scratch
    {
        /**
         * The execution of the last call, one entry per thread.  Only
         * meaningful after a call returned true: a rejected map leaves
         * it partly overwritten.
         */
        std::vector<ThreadExec> exec;
        /**
         * Bumped whenever some call changes exec's shape -- which
         * static instructions a thread executed, or a resolved address
         * -- and on the first call under a new builder.  Equal values
         * after two successful calls mean equal shapes: the traces
         * differ at most in data values, and rfTrace in its sources.
         */
        uint64_t shapeEpoch = 0;

        /** One static instruction's value state in the fixpoint: a
         *  field is valid iff its bit is set in `known`. */
        struct Site
        {
            isa::Value addr = 0;  ///< memory instructions
            isa::Value data = 0;  ///< store data or load(ed) value
            isa::Value data2 = 0; ///< RMWs: the value written to memory
            uint8_t known = 0;    ///< Executed | Addr | Data | Data2 bits

            bool operator==(const Site &) const = default;
        };

        // ---- builder-internal working memory
        /** Builder this scratch last served (0: none yet). */
        uint64_t owner = 0;
        /** Flat site table (CandidateBuilder's site offsets). */
        std::vector<Site> sites;
        /** The unseeded fixpoint every seed attempt starts from. */
        std::vector<Site> unseeded;
        /** One thread's sites in the current fixpoint round. */
        std::vector<Site> next;
        /** Per load ordinal: value overridden by the current seed. */
        std::vector<uint8_t> seeded;
    };

    CandidateBuilder(const litmus::LitmusTest &test, Options options);

    /** Static load sites (tid, index), in enumeration order. */
    const std::vector<std::pair<int, int>> &loadSites() const
    {
        return _loadSites;
    }

    /** Static store sites as global StoreIds. */
    const std::vector<model::StoreId> &storeSites() const
    {
        return _storeSites;
    }

    /**
     * Feasible read-from sources per load (parallel to loadSites):
     * InitStore plus every store whose statically-known address can
     * match the load's.  Sources whose addresses are data-dependent on
     * loaded values stay in every list (the analysis is conservative);
     * the value fixpoint remains the exact judge.
     */
    const std::vector<std::vector<model::StoreId>> &rfChoices() const
    {
        return _rfChoices;
    }

    /**
     * Read-from maps the static analysis discards without trying:
     * (1 + #stores)^#loads minus the feasible product, saturated.
     */
    uint64_t rfStaticSkipped() const { return _rfStaticSkipped; }

    /**
     * Execute all threads to a value fixpoint under @p rf, into
     * @p scratch.exec; false when the map is value-inconsistent (wrong
     * supplied value, unexecuted source, unaligned address from a
     * bogus guess, or an undetermined value cycle no seed resolves).
     * Each seed is tried from the unseeded fixpoint.  Thread-safe:
     * workers share one builder, each with its own @p scratch.
     */
    bool computeExecution(const std::vector<model::StoreId> &rf,
                          Scratch &scratch) const;

    const litmus::LitmusTest &test() const { return _test; }
    const Options &options() const { return _options; }

  private:
    using Site = Scratch::Site;

    void computeStaticFeasibility();
    /** Run every thread to a value fixpoint over scratch.sites. */
    void runFixpoint(const std::vector<model::StoreId> &rf,
                     Scratch &scratch, isa::Value seed) const;
    /** Does every executed load's rf source supply its value? */
    bool loadsConsistent(const std::vector<model::StoreId> &rf,
                         const std::vector<Site> &sites) const;
    /** Commit the fixpoint to scratch.exec; false on a blocked or
     *  invalid trace.  Bumps the shape epoch on a shape change. */
    bool commitTraces(const std::vector<model::StoreId> &rf,
                      Scratch &scratch) const;
    /** The value store @p src supplies to readers, if known. */
    std::optional<isa::Value> suppliedValue(model::StoreId src,
                                            const std::vector<Site> &sites)
        const;
    /** Flat site index of (tid, idx). */
    size_t site(int tid, int idx) const
    {
        return _siteBase[size_t(tid)] + size_t(idx);
    }

    const litmus::LitmusTest &_test;
    Options _options;
    /** Unique per builder: tells a Scratch its owner changed. */
    uint64_t _id;
    std::vector<std::pair<int, int>> _loadSites;
    std::vector<model::StoreId> _storeSites;
    std::vector<std::vector<model::StoreId>> _rfChoices;
    uint64_t _rfStaticSkipped = 0;
    /** Per thread: its first flat site index; back() = site count. */
    std::vector<size_t> _siteBase;
    /** Per flat site: its ordinal in loadSites, or -1. */
    std::vector<int> _loadOrdinal;
    /** Longest thread (the per-round scratch size). */
    size_t _maxThreadLen = 0;
};

/**
 * The shared enumeration driver.  run() is the incremental pruned
 * search every engine uses by default; runAll() replays the full
 * unpruned candidate stream (all value-consistent read-from maps times
 * all coherence permutations) through a plain CandidateFilter -- the
 * compatibility surface behind Checker::enumerateFiltered().
 */
class CandidateEnumerator
{
  public:
    CandidateEnumerator(const litmus::LitmusTest &test, Options options);

    /**
     * Incremental pruned search: one filter per worker from
     * @p factory, outcomes of accepted complete candidates merged
     * deterministically.
     */
    litmus::OutcomeSet run(const FilterFactory &factory);

    /**
     * The full candidate stream with no pruning: @p accept sees every
     * value-consistent (rf, co) combination, exactly like the
     * pre-incremental pipeline.
     */
    litmus::OutcomeSet runAll(const CandidateFilter &accept);

    /**
     * Decide N filters over ONE shared walk.  The rf-candidate stream,
     * the value fixpoint and the coherence DFS are filter-independent,
     * so N models cost one walk plus N filter evaluations instead of N
     * walks -- the core amortization of the batched decide pipeline.
     *
     * Each filter receives exactly the callback sequence a solo serial
     * run() with it would have produced: a filter that vetoes a
     * pushStore still gets the matching popStore, then sees nothing
     * from the vetoed subtree (the walk continues there only for the
     * filters that accepted), and rejoins at the next sibling.  The
     * returned outcome sets are therefore identical to N run() calls,
     * and @p laneStats (when given) receives each filter's
     * solo-equivalent counters.  The pass is serial --
     * Options::searchThreads is ignored -- which is the campaign's
     * configuration (its parallelism lives across units).
     */
    std::vector<litmus::OutcomeSet>
    runMulti(const std::vector<FilterFactory> &factories,
             std::vector<CheckerStats> *laneStats = nullptr);

    /** Counters of the last run. */
    const CheckerStats &stats() const { return _stats; }

    const CandidateBuilder &builder() const { return _builder; }

  private:
    struct Walk;
    struct SearchCtx;
    struct MultiCtx;

    /**
     * Enter a new value-consistent rf epoch of @p walk: refresh its
     * events, and rebuild the per-shape tables (traces, coOrder's
     * store sets, suffixLeaves, remaining) only when the builder
     * reported a new shape, counting it in @p stats.
     */
    void prepareEpoch(Walk &walk, CheckerStats &stats) const;

    /** Enumerate the rf maps extending @p prefix, in one Walk. */
    void searchRfRange(size_t prefixLoads, uint64_t prefixIndex,
                       IncrementalFilter &filter,
                       litmus::OutcomeSet &outcomes,
                       CheckerStats &stats) const;

    /** Coherence search for one value-consistent rf candidate. */
    void searchCoherence(SearchCtx &ctx) const;

    /** Recursive coherence extension over the addresses ai... */
    void descendCoherence(SearchCtx &ctx, size_t ai,
                          const CandidateExecution &partial) const;

    /** The multi-filter mirrors of the three functions above. */
    void searchRfRangeMulti(MultiCtx &ctx) const;
    void searchCoherenceMulti(MultiCtx &ctx) const;
    void descendCoherenceMulti(MultiCtx &ctx, size_t ai,
                               const CandidateExecution &partial) const;

    /** Record one accepted complete candidate's outcome. */
    void recordOutcome(SearchCtx &ctx) const;

    CandidateBuilder _builder;
    CheckerStats _stats;
};

/**
 * Alignment-tolerant initial-memory read (bogus rf guesses may compute
 * unaligned addresses; those candidates are discarded before any
 * outcome is recorded).  Shared by the enumerator's outcome recording
 * and the legacy checker path.
 */
isa::Value initialMemValue(const isa::MemImage &mem, isa::Addr addr);

/**
 * Collect the memory events of one computed execution into @p out
 * (cleared first), thread-major in trace order -- the event list both
 * the pruned search and the legacy pipeline hand to their filters.
 * One definition so candidate *production* can never drift between
 * the path under test and its differential reference.
 */
void collectCandidateEvents(
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    std::vector<CandidateEvent> &out);

/**
 * Record one accepted candidate's outcome (observed registers from
 * @p exec, final memory from the last store of each coherence order)
 * into @p outcomes.  Shared by both enumeration paths, like
 * collectCandidateEvents().
 */
void recordCandidateOutcome(
    const litmus::LitmusTest &test,
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    const std::vector<CandidateEvent> &events, const CoOrder &coOrder,
    litmus::OutcomeSet &outcomes);

/** Encode (tid, static index) as a StoreId. */
constexpr model::StoreId
storeId(int tid, int idx)
{
    return static_cast<model::StoreId>(tid * 1024 + idx);
}

/** Decode a StoreId. */
constexpr std::pair<int, int>
storeIdParts(model::StoreId id)
{
    return {id / 1024, id % 1024};
}

} // namespace gam::axiomatic

#endif // GAM_AXIOMATIC_ENUMERATE_HH
