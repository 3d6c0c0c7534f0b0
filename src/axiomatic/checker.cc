#include "axiomatic/checker.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "base/hashing.hh"
#include "base/logging.hh"
#include "cat/rel.hh"
#include "isa/semantics.hh"
#include "model/ppo.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace gam::axiomatic
{

using isa::Addr;
using isa::Instruction;
using isa::Value;
using model::InitStore;
using model::StoreId;

namespace
{

/**
 * ppo of one committed trace as pairs of the thread's memory accesses:
 * (i, j) orders its i-th memory access before its j-th.  Only these
 * pairs constrain the memory order, and the candidate's events list a
 * thread's accesses contiguously in trace order, so an ordinal pair
 * lands on events by adding the thread's first event index.
 */
std::vector<std::pair<uint32_t, uint32_t>>
memoryPpo(const model::Trace &trace, model::ModelKind model,
          const model::RfMap *rf)
{
    std::vector<uint32_t> ordinal(trace.size(), 0);
    uint32_t mems = 0;
    for (size_t k = 0; k < trace.size(); ++k)
        if (trace[k].isMem())
            ordinal[k] = mems++;
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (auto [i, j] : model::preservedProgramOrder(trace, model, rf).pairs())
        if (trace[i].isMem() && trace[j].isMem())
            out.emplace_back(ordinal[i], ordinal[j]);
    return out;
}

/** Why a built-in filter callback rejected. */
enum class Reject {
    /** A constraint edge closed a cycle: depends on the lane's ppo. */
    Cycle,
    /** C(L) nonempty or broken atomicity: depends on no model. */
    ModelFree,
};

/**
 * What the built-in filter lanes of one pass share.  A solo filter
 * owns a board with one lane; enumerateModels() hands one board to
 * every lane of a fused pass.
 *
 * The board holds the model-independent tables every lane needs: per
 * shape epoch each thread's first event and the hash of its executed
 * shape, per rf epoch the hash of each thread's rf sources (for ARM).
 * Per filter callback it holds each lane's verdict and why the
 * lanes that rejected did so, which gives two sharing rules.  A lane's
 * constraint graph is its ppo base plus edges that depend on the
 * candidate alone, so:
 *
 *  - a lane whose base is a superset of a lane that closed a cycle in
 *    this callback closes one too, and a model-free rejection rejects
 *    every lane -- either way it rejects at once, without touching
 *    its closure;
 *  - a lane whose base equals an earlier lane's has the same verdict
 *    on every callback of the epoch: it mirrors that lane and keeps no
 *    closure at all.
 *
 * runMulti() calls the live lanes of one callback in lane order and
 * brackets every round of pushStore() calls with popStore() calls, so
 * a callback starts whenever the kind changes or the lane index does
 * not grow.  Outcomes and counters stay exactly the solo run's: only
 * the work behind each verdict is shared.
 */
struct LaneBoard
{
    enum class Kind { None, Begin, Push, Pop };

    explicit LaneBoard(size_t lanes)
        : base(lanes), leader(lanes), verdict(lanes, 1)
    {}

    /** Note that @p lane is being called for a callback of @p kind. */
    void
    enter(Kind kind, size_t lane)
    {
        if (kind != current || lane <= lastLane) {
            modelFree = false;
            cycled.clear();
        }
        current = kind;
        lastLane = lane;
    }

    /**
     * Rebuild the per-epoch tables if @p cand starts a new epoch; the
     * per-shape ones only when its shape epoch moved too.  Every lane
     * of one board passes the same @p withShapes.
     */
    void
    refresh(const CandidateExecution &cand, bool withShapes)
    {
        if (valid && epoch == cand.rfEpoch)
            return;
        const bool newShape = !valid || shape != cand.shapeEpoch;
        valid = true;
        epoch = cand.rfEpoch;
        shape = cand.shapeEpoch;
        const size_t n = cand.events.size();
        const size_t nthreads = cand.traces.size();
        if (newShape) {
            firstNode.assign(nthreads, 0);
            for (size_t v = n; v-- > 0;)
                firstNode[size_t(cand.events[v].tid)] = uint32_t(v);
        }
        if (!withShapes)
            return;
        if (newShape) {
            shapeKey.assign(nthreads, 0);
            for (size_t tid = 0; tid < nthreads; ++tid) {
                StateHasher h;
                for (const model::TraceInstr &ti : *cand.traces[tid]) {
                    const isa::Instruction &in = ti.instr;
                    h.add(uint64_t(in.op) | uint64_t(in.fence) << 8
                          | uint64_t(uint16_t(in.dst)) << 16
                          | uint64_t(uint16_t(in.src1)) << 32
                          | uint64_t(uint16_t(in.src2)) << 48);
                    h.add(uint64_t(in.imm));
                    h.add(ti.isMem() ? uint64_t(ti.addr) + 1 : 0);
                }
                shapeKey[tid] = h.digest();
            }
        }
        // The rf half of ARM's key: each thread's loads' sources, in
        // trace order (events list them that way).
        rfKey.assign(nthreads, 0);
        for (const CandidateEvent &ev : cand.events) {
            if (ev.isLoad) {
                uint64_t &key = rfKey[size_t(ev.tid)];
                key = hashCombine(key, uint64_t(uint32_t(ev.rf)));
            }
        }
    }

    // ---- per rf epoch, model-independent
    bool valid = false;
    uint64_t epoch = 0;
    /** Per thread: hash of its loads' rf sources. */
    std::vector<uint64_t> rfKey;

    // ---- per shape epoch, model-independent
    /** The shape epoch firstNode and shapeKey were built for. */
    uint64_t shape = 0;
    /** Per thread: the event index of its first memory access. */
    std::vector<uint32_t> firstNode;
    /** Per thread: hash of the executed instructions and addresses. */
    std::vector<uint64_t> shapeKey;

    // ---- per lane, per epoch
    /** Each lane's ppo base over the events. */
    std::vector<cat::Rel> base;
    /** The lane each lane mirrors (itself when it keeps a closure). */
    std::vector<size_t> leader;

    // ---- per callback
    Kind current = Kind::None;
    size_t lastLane = 0;
    /** Each lane's verdict on the current callback, once called. */
    std::vector<char> verdict;
    /** A lane met a model-free rejection in this callback. */
    bool modelFree = false;
    /** Lanes that closed a cycle in this callback. */
    std::vector<size_t> cycled;

    // ---- what the sharing saved, over the board's life
    /** Callbacks a mirror lane answered from its leader's verdict. */
    uint64_t mirrored = 0;
    /** Rejections decided by a subset lane's cycle. */
    uint64_t supersetRejects = 0;
    /** Rejections decided by an earlier lane's model-free reject. */
    uint64_t modelFreeRejects = 0;
};

/**
 * The hand-coded Figure-15 axioms as an incremental filter.
 *
 * The constraint graph of the classic reduction -- ppo edges, rf
 * edges, LoadValue (fr) edges and coherence edges -- is maintained as
 * a transitively-closed bitset reachability relation (cat::Rel).
 * Permutation-independent constraints are installed once per read-from
 * candidate in beginRf(); each coherence extension adds its co edge,
 * its newly-implied fr edges and the RMW atomicity check in
 * pushStore(), failing the instant an edge closes a cycle.  accept()
 * is then trivially true: a complete candidate that survived every
 * extension has an acyclic constraint graph, i.e. a witness mo exists.
 */
class BuiltinAxiomFilter final : public IncrementalFilter
{
  public:
    /** A solo filter: its own board, no ppo cache. */
    BuiltinAxiomFilter(model::ModelKind model, bool enforce_inst_order)
        : model(model), enforceInstOrder(enforce_inst_order),
          ownBoard(std::make_unique<LaneBoard>(1)), board(*ownBoard)
    {}

    /** Lane @p lane of a fused pass sharing @p board and @p ppo_shapes. */
    BuiltinAxiomFilter(model::ModelKind model, bool enforce_inst_order,
                       PpoCache *ppo_shapes, LaneBoard &board,
                       size_t lane)
        : model(model), enforceInstOrder(enforce_inst_order),
          ppoShapes(ppo_shapes), board(board), lane(lane)
    {}

    bool
    beginRf(const CandidateExecution &cand) override
    {
        board.enter(LaneBoard::Kind::Begin, lane);
        board.refresh(cand, ppoShapes != nullptr);
        n = cand.events.size();
        depth = 0;

        // ppo projected onto memory events (InstOrder axiom).  Each
        // thread's ppo is transitively closed and threads share no
        // events, so the rows go straight into the closure.
        cat::Rel &mine = board.base[lane];
        mine.reset(n);
        if (enforceInstOrder) {
            for (size_t tid = 0; tid < cand.traces.size(); ++tid) {
                const uint32_t first = board.firstNode[tid];
                for (auto [i, j] : ppoPairs(cand, tid))
                    mine.set(first + i, first + j);
            }
        }
        board.leader[lane] = lane;
        for (size_t other = 0; other < lane; ++other) {
            if (board.leader[other] == other
                && board.base[other] == mine) {
                board.leader[lane] = other;
                ++board.mirrored;
                return settle(board.verdict[other]);
            }
        }
        if (sharedReject())
            return false;
        reach = mine;

        // Permutation-independent halves of LoadValue: the rf edge
        // itself, and -- for loads reading the initial memory -- the
        // requirement that *no* same-address store is po-before or
        // mo-before the load (the store *set* per address is fixed;
        // only its order varies).
        for (size_t l = 0; l < n; ++l) {
            const CandidateEvent &ld = cand.events[l];
            if (!ld.isLoad)
                continue;
            if (ld.rf == InitStore) {
                for (size_t s = 0; s < n; ++s) {
                    const CandidateEvent &st = cand.events[s];
                    if (!st.isStore || st.addr != ld.addr || s == l)
                        continue;
                    if (poBefore(cand, s, l))
                        return reject(Reject::ModelFree); // C(L) nonempty
                    if (!addEdge(l, s))
                        return reject(Reject::Cycle);
                }
            } else {
                const size_t s = size_t(ld.rfEvent);
                if (!poBefore(cand, s, l) && !addEdge(s, l))
                    return reject(Reject::Cycle);
            }
        }
        return settle(true);
    }

    bool
    pushStore(const CandidateExecution &cand, Addr addr,
              int eventIdx) override
    {
        board.enter(LaneBoard::Kind::Push, lane);
        if (board.leader[lane] != lane) {
            ++board.mirrored;
            return settle(board.verdict[board.leader[lane]]);
        }
        // The closure is snapshotted by the first edge that changes it
        // (see addEdge()); popStore() restores only what was saved.
        if (depth == saved.size()) {
            saved.emplace_back();
            snapshots.emplace_back();
        }
        saved[depth] = false;
        ++depth;
        if (sharedReject())
            return false;

        const std::span<const int> p = cand.coOrder.of(addr);
        const size_t v = size_t(eventIdx);

        // Coherence edge from the previous store in this address's
        // order.
        if (p.size() >= 2
            && !addEdge(size_t(p[p.size() - 2]), v))
            return reject(Reject::Cycle);

        // Atomicity (Section III-C): an RMW's read source must be its
        // immediate coherence predecessor -- no store may slip between
        // the read and the write.
        const CandidateEvent &ev = cand.events[v];
        if (ev.isLoad && ev.isStore) {
            if (ev.rf == InitStore) {
                if (p.size() != 1) // something precedes the write
                    return reject(Reject::ModelFree);
            } else if (p.size() < 2
                       || p[p.size() - 2] != ev.rfEvent) {
                return reject(Reject::ModelFree); // not co-adjacent
            }
        }

        // LoadValue: every load whose source now precedes this store
        // in coherence must be mo-before it (fr), and must not be
        // po-after it.
        for (size_t l = 0; l < n; ++l) {
            const CandidateEvent &ld = cand.events[l];
            if (!ld.isLoad || ld.addr != addr || l == v
                || ld.rf == InitStore) // handled in beginRf
                continue;
            const int src = ld.rfEvent;
            if (src == eventIdx)
                continue; // stores after the source arrive later
            const bool source_placed_before =
                std::find(p.begin(), p.end() - 1, src) != p.end() - 1;
            if (!source_placed_before)
                continue;
            if (poBefore(cand, v, l)) // a newer po-before store
                return reject(Reject::ModelFree);
            if (!addEdge(l, v))
                return reject(Reject::Cycle);
        }
        return settle(true);
    }

    void
    popStore(const CandidateExecution &, Addr, int) override
    {
        board.enter(LaneBoard::Kind::Pop, lane);
        if (board.leader[lane] != lane)
            return;
        --depth;
        if (saved[depth])
            std::swap(reach, snapshots[depth]);
    }

    bool
    accept(const CandidateExecution &) override
    {
        // Every constraint was checked as it appeared.
        return true;
    }

  private:
    static bool
    poBefore(const CandidateExecution &cand, size_t a, size_t b)
    {
        return cand.events[a].tid == cand.events[b].tid
            && cand.events[a].traceIdx < cand.events[b].traceIdx;
    }

    /** Record a rejection on the board; always false. */
    bool
    reject(Reject why)
    {
        if (why == Reject::ModelFree)
            board.modelFree = true;
        else
            board.cycled.push_back(lane);
        return settle(false);
    }

    /** Publish this lane's verdict on the current callback. */
    bool
    settle(bool ok)
    {
        board.verdict[lane] = ok;
        return ok;
    }

    /**
     * Does an earlier lane's rejection in this callback decide this
     * lane's (see LaneBoard)?  Records the verdict when it does.
     */
    bool
    sharedReject()
    {
        if (board.modelFree) {
            ++board.modelFreeRejects;
            return !settle(false);
        }
        for (size_t other : board.cycled) {
            if (board.base[other].subsetOf(board.base[lane])) {
                ++board.supersetRejects;
                return !settle(false);
            }
        }
        return false;
    }

    /**
     * Thread @p tid's memory-event ppo pairs (memoryPpo()), through the
     * shared shape cache when the filter was given one.  ppo depends
     * on the executed instruction sequence and the resolved addresses,
     * never on data values (model/ppo.cc reads neither
     * TraceInstr::value nor rmwStored); only ARM's SALdLdARM also
     * reads the thread's rf sources, so only ARM's key carries them.
     * Without a cache, compute directly: the un-batched pipeline's
     * cost model is unchanged.
     */
    const std::vector<std::pair<uint32_t, uint32_t>> &
    ppoPairs(const CandidateExecution &cand, size_t tid)
    {
        const model::Trace &trace = *cand.traces[tid];
        const bool arm = model == model::ModelKind::ARM;
        if (!ppoShapes) {
            model::RfMap rfTrace;
            if (arm)
                rfTrace = rfOf(cand, tid);
            ppoScratch = memoryPpo(trace, model, arm ? &rfTrace : nullptr);
            return ppoScratch;
        }
        StateHasher h;
        h.add(uint64_t(model));
        h.add(board.shapeKey[tid]);
        if (arm)
            h.add(board.rfKey[tid]);
        const uint64_t key = h.digest();
        // Consecutive rf maps mostly leave a thread's shape alone.
        if (lastShape.size() <= tid)
            lastShape.resize(tid + 1, {0, nullptr});
        if (lastShape[tid].second && lastShape[tid].first == key)
            return *lastShape[tid].second;
        auto it = ppoShapes->find(key);
        if (it == ppoShapes->end()) {
            model::RfMap rfTrace;
            if (arm)
                rfTrace = rfOf(cand, tid);
            it = ppoShapes
                     ->emplace(key, memoryPpo(trace, model,
                                              arm ? &rfTrace : nullptr))
                     .first;
        }
        lastShape[tid] = {key, &it->second};
        return it->second;
    }

    /** Thread @p tid's read-from map over its trace (ARM's ppo). */
    static model::RfMap
    rfOf(const CandidateExecution &cand, size_t tid)
    {
        model::RfMap rf(cand.traces[tid]->size(), InitStore);
        for (const CandidateEvent &ev : cand.events)
            if (ev.tid == int(tid) && ev.isLoad)
                rf[size_t(ev.traceIdx)] = ev.rf;
        return rf;
    }

    /**
     * Add u -> v to the closed reachability relation.  False when the
     * edge closes a cycle (including u == v); the relation is left
     * unchanged in that case only up to the snapshot discipline --
     * inside a push, the first edge that changes the closure
     * snapshots it, so a failed push is rolled back wholesale by
     * popStore().
     */
    bool
    addEdge(size_t u, size_t v)
    {
        if (u == v || reach.test(v, u))
            return false;
        if (reach.test(u, v))
            return true; // already implied
        if (depth > 0 && !saved[depth - 1]) {
            snapshots[depth - 1] = reach;
            saved[depth - 1] = true;
        }
        for (size_t x = 0; x < n; ++x) {
            if (x != u && !reach.test(x, u))
                continue;
            reach.orRowInto(v, x);
            reach.set(x, v);
        }
        return true;
    }

    const model::ModelKind model;
    const bool enforceInstOrder;
    PpoCache *ppoShapes = nullptr;
    std::unique_ptr<LaneBoard> ownBoard;
    LaneBoard &board;
    const size_t lane = 0;
    /** Holds the uncached ppo pairs so ppoPairs() can return a
     *  reference on both paths; valid until the next call. */
    std::vector<std::pair<uint32_t, uint32_t>> ppoScratch;
    /** Per thread: the last cache key looked up and its entry (cache
     *  entries never move). */
    std::vector<std::pair<uint64_t,
                          const std::vector<std::pair<uint32_t, uint32_t>> *>>
        lastShape;

    size_t n = 0;
    cat::Rel reach;
    /** Closure snapshots by push depth, kept across epochs. */
    std::vector<cat::Rel> snapshots;
    /** Whether the push at each depth snapshotted the closure. */
    std::vector<char> saved;
    size_t depth = 0;
};

} // anonymous namespace

Checker::Checker(const litmus::LitmusTest &test, model::ModelKind model,
                 Options options)
    : test(test), model(model), options(std::move(options))
{
    // Screen programmatic misuse eagerly, exactly as the pre-refactor
    // constructor did (CandidateBuilder repeats this screen, but each
    // enumerate*() call constructs its own -- too late for a
    // constructor-time contract and too wasteful to run here in full).
    for (size_t tid = 0; tid < test.threads.size(); ++tid) {
        const auto &prog = test.threads[tid];
        GAM_ASSERT(prog.size() < 1024, "thread too long for StoreId");
        for (size_t idx = 0; idx < prog.size(); ++idx) {
            const Instruction &instr = prog[idx];
            if (instr.isBranch()
                && instr.imm <= static_cast<int64_t>(idx)) {
                fatal("axiomatic checker requires forward branches "
                      "(thread %zu instr %zu)", tid, idx);
            }
        }
    }
}

litmus::OutcomeSet
Checker::enumerate()
{
    GAM_TRACE_SCOPE("axiomatic.enumerate");
    CandidateEnumerator enumerator(test, options);
    litmus::OutcomeSet outcomes = enumerator.run([&] {
        return std::make_unique<BuiltinAxiomFilter>(
            model, options.enforceInstOrder);
    });
    _stats = enumerator.stats();
    return outcomes;
}

litmus::OutcomeSet
Checker::enumerateFiltered(const CandidateFilter &accept)
{
    GAM_ASSERT(accept != nullptr, "enumerateFiltered: null filter");
    CandidateEnumerator enumerator(test, options);
    litmus::OutcomeSet outcomes = enumerator.runAll(accept);
    _stats = enumerator.stats();
    return outcomes;
}

litmus::OutcomeSet
Checker::enumerateIncremental(const FilterFactory &factory)
{
    GAM_ASSERT(factory != nullptr, "enumerateIncremental: null factory");
    CandidateEnumerator enumerator(test, options);
    litmus::OutcomeSet outcomes = enumerator.run(factory);
    _stats = enumerator.stats();
    return outcomes;
}

litmus::OutcomeSet
Checker::enumerateLegacy()
{
    return enumerateLegacyImpl(nullptr);
}

litmus::OutcomeSet
Checker::enumerateFilteredLegacy(const CandidateFilter &accept)
{
    GAM_ASSERT(accept != nullptr, "enumerateFilteredLegacy: null filter");
    return enumerateLegacyImpl(&accept);
}

bool
Checker::isAllowed()
{
    // Seed undetermined-value candidates with the condition's constants
    // so OOTA-style conditions are decided by the axioms.
    options = withConditionSeeds(test, std::move(options));
    litmus::OutcomeSet outcomes = enumerate();
    for (const auto &o : outcomes)
        if (test.conditionMatches(o))
            return true;
    return false;
}

// ------------------------------------------------- legacy enumeration
//
// The pre-incremental pipeline, preserved verbatim: every complete
// (rf, co) candidate is materialized, the whole constraint graph is
// built, and acyclicity is tested at the end.  Differential tests
// assert outcome-set equality against the pruned search above, and
// bench_candidate_prune measures what the pruning buys.

void
Checker::checkCandidate(
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    litmus::OutcomeSet &outcomes, const CandidateFilter *accept,
    uint64_t rfEpoch, uint64_t shapeEpoch)
{
    // ---- Collect memory events and per-thread ppo. ----
    std::vector<CandidateEvent> events;
    collectCandidateEvents(exec, events);
    std::map<std::pair<int, int>, int> nodeOf; // (tid, traceIdx) -> node
    for (size_t v = 0; v < events.size(); ++v)
        nodeOf[{events[v].tid, events[v].traceIdx}] = int(v);
    const size_t n = events.size();

    // The committed traces, for filters that derive their own
    // relations (dependencies, fences) from the instruction stream.
    std::vector<const model::Trace *> traces;
    for (const auto &te : exec)
        traces.push_back(&te.trace);

    // ppo projected onto memory events (built-in axiom path only; a
    // filter embodies its own model).
    std::vector<std::pair<int, int>> ppoEdges;
    if (!accept && options.enforceInstOrder) {
        for (size_t tid = 0; tid < exec.size(); ++tid) {
            const auto &te = exec[tid];
            model::Relation ppo = model::preservedProgramOrder(
                te.trace, model, &te.rfTrace);
            for (auto [i, j] : ppo.pairs()) {
                auto it1 = nodeOf.find({int(tid), int(i)});
                auto it2 = nodeOf.find({int(tid), int(j)});
                if (it1 != nodeOf.end() && it2 != nodeOf.end())
                    ppoEdges.emplace_back(it1->second, it2->second);
            }
        }
    }

    auto po_before = [&](int s, int l) {
        return events[s].tid == events[l].tid
            && events[s].traceIdx < events[l].traceIdx;
    };

    // ---- Enumerate coherence orders (one permutation per address),
    // grouping stores by address. ----
    CoOrder perm;
    perm.assign(events);

    // ---- Accepted-candidate outcome recording (both paths). ----
    auto record = [&]() {
        ++_stats.accepted;
        recordCandidateOutcome(test, exec, events, perm, outcomes);
    };

    auto try_combo = [&]() {
        ++_stats.coCandidates;

        if (accept) {
            const CandidateExecution candidate{events, perm, traces,
                                               rfEpoch, shapeEpoch};
            if ((*accept)(candidate))
                record();
            return;
        }

        std::vector<std::vector<int>> adj(n);
        auto edge = [&](int u, int v) { adj[size_t(u)].push_back(v); };

        for (auto [u, v] : ppoEdges)
            edge(u, v);
        // Coherence edges (consecutive).
        for (size_t ai = 0; ai < perm.size(); ++ai) {
            const std::span<const int> p = perm.order(ai);
            for (size_t i = 0; i + 1 < p.size(); ++i)
                edge(p[i], p[i + 1]);
        }
        // Atomicity (Section III-C): an RMW's read source must be its
        // immediate coherence predecessor -- no store may slip between
        // the read and the write.
        for (size_t v = 0; v < n; ++v) {
            const CandidateEvent &ev = events[v];
            if (!(ev.isLoad && ev.isStore))
                continue;
            const std::span<const int> p = perm.of(ev.addr);
            size_t pos = 0;
            while (pos < p.size() && p[pos] != int(v))
                ++pos;
            GAM_ASSERT(pos < p.size(), "RMW missing from its co");
            if (ev.rf == InitStore) {
                if (pos != 0)
                    return; // something intervened before the write
            } else if (pos == 0 || p[pos - 1] != ev.rfEvent) {
                return; // read and write are not co-adjacent
            }
        }

        // rf and fr edges per the LoadValue axiom (the load side of
        // every event, including RMWs; an RMW's own store side is
        // always coherence-after its read and is skipped).
        for (size_t v = 0; v < n; ++v) {
            const CandidateEvent &ld = events[v];
            if (!ld.isLoad)
                continue;
            const std::span<const int> p = perm.of(ld.addr);
            if (ld.rf == InitStore) {
                // No store may be mo-before or po-before this load.
                for (int s : p) {
                    if (s == int(v))
                        continue; // an RMW's own write
                    if (po_before(s, int(v)))
                        return; // rejected: C(L) nonempty
                    edge(int(v), s);
                }
            } else {
                const int s = ld.rfEvent;
                if (!po_before(s, int(v)))
                    edge(s, int(v));
                // Stores coherence-after the source must be outside C(L).
                bool after = false;
                for (int s2 : p) {
                    if (s2 == s) {
                        after = true;
                        continue;
                    }
                    if (!after || s2 == int(v))
                        continue;
                    if (po_before(s2, int(v)))
                        return; // rejected: a newer po-before store exists
                    edge(int(v), s2);
                }
            }
        }

        // Acyclicity via iterative DFS.
        std::vector<int> state(n, 0);
        std::vector<int> stack;
        for (size_t root = 0; root < n; ++root) {
            if (state[root])
                continue;
            stack.push_back(int(root));
            while (!stack.empty()) {
                int u = stack.back();
                if (state[u] == 0) {
                    state[u] = 1;
                    for (int w : adj[size_t(u)]) {
                        if (state[w] == 1)
                            return; // cycle: candidate rejected
                        if (state[w] == 0)
                            stack.push_back(w);
                    }
                } else {
                    if (state[u] == 1)
                        state[u] = 2;
                    stack.pop_back();
                }
            }
        }

        // ---- Accepted by the built-in axioms. ----
        record();
    };

    // Recursive product of per-address permutations.
    std::function<void(size_t)> rec = [&](size_t ai) {
        if (ai == perm.size()) {
            try_combo();
            return;
        }
        const std::span<int> p = perm.placeAll(ai);
        std::sort(p.begin(), p.end());
        do {
            rec(ai + 1);
        } while (std::next_permutation(p.begin(), p.end()));
    };
    rec(0);
}

litmus::OutcomeSet
Checker::enumerateLegacyImpl(const CandidateFilter *accept)
{
    _stats = CheckerStats{};
    litmus::OutcomeSet outcomes;

    CandidateBuilder builder(test, options);
    const size_t nloads = builder.loadSites().size();
    std::vector<StoreId> rf(nloads, InitStore);
    // Choice list per load: InitStore plus every store site.
    std::vector<StoreId> choices;
    choices.push_back(InitStore);
    choices.insert(choices.end(), builder.storeSites().begin(),
                   builder.storeSites().end());

    std::vector<size_t> odo(nloads, 0);
    CandidateBuilder::Scratch scratch;
    for (;;) {
        for (size_t i = 0; i < nloads; ++i)
            rf[i] = choices[odo[i]];

        ++_stats.rfCandidates;
        if (builder.computeExecution(rf, scratch)) {
            ++_stats.valueConsistent;
            checkCandidate(scratch.exec, outcomes, accept,
                           _stats.valueConsistent, scratch.shapeEpoch);
        } else {
            ++_stats.valueCycles;
        }

        // Advance the odometer.
        size_t pos = 0;
        while (pos < nloads) {
            if (++odo[pos] < choices.size())
                break;
            odo[pos] = 0;
            ++pos;
        }
        if (pos == nloads || nloads == 0)
            break;
    }
    return outcomes;
}

// --------------------------------------------- fused multi-model pass

namespace
{

/**
 * Lane order for a fused pass: models whose ppo is usually the smaller
 * run first, so the lanes that can reuse a weaker lane's verdict (see
 * LaneBoard) come after it.  Any order is correct; this one shares the
 * most.
 */
int
ppoRank(model::ModelKind m)
{
    switch (m) {
      case model::ModelKind::GAM0:
      case model::ModelKind::AlphaStar:
        return 0;
      case model::ModelKind::ARM:
        return 1;
      case model::ModelKind::GAM:
      case model::ModelKind::PerLocSC:
        return 2;
      case model::ModelKind::TSO:
        return 3;
      case model::ModelKind::SC:
        return 4;
    }
    return 5;
}

} // anonymous namespace

std::vector<litmus::OutcomeSet>
enumerateModels(CandidateEnumerator &enumerator,
                const std::vector<model::ModelKind> &models,
                bool enforceInstOrder,
                std::vector<CheckerStats> *stats, PpoCache *ppoShapes)
{
    GAM_TRACE_SCOPE("axiomatic.enumerate_multi");
    std::vector<size_t> order(models.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return ppoRank(models[a]) < ppoRank(models[b]);
    });

    LaneBoard board(models.size());
    std::vector<FilterFactory> factories;
    factories.reserve(models.size());
    for (size_t lane = 0; lane < order.size(); ++lane) {
        const model::ModelKind m = models[order[lane]];
        factories.push_back([m, enforceInstOrder, ppoShapes, &board,
                             lane] {
            return std::make_unique<BuiltinAxiomFilter>(
                m, enforceInstOrder, ppoShapes, board, lane);
        });
    }
    std::vector<CheckerStats> laneStats;
    std::vector<litmus::OutcomeSet> sets =
        enumerator.runMulti(factories, &laneStats);
    static struct
    {
        obs::Counter &mirrored =
            obs::metrics().counter("axiomatic.lanes.mirrored");
        obs::Counter &supersetRejects =
            obs::metrics().counter("axiomatic.lanes.superset_rejects");
        obs::Counter &modelFreeRejects =
            obs::metrics().counter("axiomatic.lanes.model_free_rejects");
    } m;
    m.mirrored.inc(board.mirrored);
    m.supersetRejects.inc(board.supersetRejects);
    m.modelFreeRejects.inc(board.modelFreeRejects);

    // Back to the caller's model order.
    std::vector<litmus::OutcomeSet> out(models.size());
    std::vector<CheckerStats> outStats(models.size());
    for (size_t lane = 0; lane < order.size(); ++lane) {
        out[order[lane]] = std::move(sets[lane]);
        outStats[order[lane]] = laneStats[lane];
    }
    if (stats)
        *stats = std::move(outStats);
    return out;
}

} // namespace gam::axiomatic
