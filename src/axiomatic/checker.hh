/**
 * @file
 * Axiomatic checker for GAM-family models (paper Section IV-A), SC,
 * TSO and the per-location-SC reference model.
 *
 * A program behavior <po, mo, rf> is legal when it satisfies the two
 * axioms of Figure 15:
 *
 *   InstOrder: I1 <ppo I2  =>  I1 <mo I2
 *   LoadValue: St[a]v -rf-> Ld[a]  =>  St[a]v =
 *       max_mo { St[a]v' | St[a]v' <mo Ld[a]  \/  St[a]v' <po Ld[a] }
 *
 * Instead of enumerating total memory orders (factorial), the checker
 * enumerates read-from maps and per-address coherence orders, derives
 * the ordering constraints the axioms impose, and accepts a candidate
 * iff the constraint graph is acyclic (any topological order is then a
 * witness mo; conversely every legal mo linearises the constraints), an
 * exact and standard reduction.
 *
 * Candidate production and search live in the shared enumeration core
 * (axiomatic/enumerate.hh); this file contributes the hand-coded
 * Figure-15 axioms in two forms:
 *
 *  - an IncrementalFilter that maintains the constraint closure online
 *    (one bitset reachability relation, extended edge by edge) so the
 *    pruned search can reject a partial candidate the moment a
 *    constraint cycle closes -- the default enumerate() path;
 *
 *  - the original enumerate-then-check pipeline, kept verbatim as
 *    enumerateLegacy() so differential tests and the pruning
 *    benchmarks can compare the two.
 *
 * Load values are computed from rf by a cross-thread fixpoint, so
 * dependencies through registers *and* memory (Figure 13c) resolve
 * naturally.  Candidates whose values stay undetermined encode
 * out-of-thin-air cycles; they are provably mo-cyclic under every model
 * here (all include full syntactic data dependencies in ppo), and can
 * optionally be value-seeded to demonstrate the rejection explicitly.
 */

#ifndef GAM_AXIOMATIC_CHECKER_HH
#define GAM_AXIOMATIC_CHECKER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "axiomatic/enumerate.hh"
#include "litmus/outcome.hh"
#include "litmus/test.hh"
#include "model/kind.hh"
#include "model/ppo.hh"
#include "model/trace.hh"

namespace gam::axiomatic
{

/**
 * Memoized model::preservedProgramOrder() results, materialized as
 * pairs of one thread's memory accesses ((i, j): its i-th access before
 * its j-th) -- the only form the built-in filter consumes -- and keyed
 * by a 64-bit hash of (model, executed instruction sequence, resolved
 * addresses): every input ppo depends on, since data values never
 * reach it (model/ppo.cc).  Only ARM's SALdLdARM reads read-from, so
 * only ARM's key also hashes the thread's rf sources; every other
 * model's entry serves every rf map of a shape.  Across the rf
 * candidates of one enumeration, and across the units of one campaign
 * chunk, the same few thread shapes recur thousands of times, and
 * recomputing their transitive closures dominated the built-in
 * filter's beginRf().  Owned by the caller (the batched decide
 * pipeline keeps one per batch), single-threaded, unbounded --
 * bounded in practice by the distinct shapes of the batch.
 */
using PpoCache =
    std::unordered_map<uint64_t,
                       std::vector<std::pair<uint32_t, uint32_t>>>;

/** Axiomatic enumeration for one litmus test under one model. */
class Checker
{
  public:
    Checker(const litmus::LitmusTest &test, model::ModelKind model,
            Options options = {});

    /**
     * All outcomes the axioms accept, via the incremental pruned
     * search (the hand-coded axioms as an IncrementalFilter).
     */
    litmus::OutcomeSet enumerate();

    /**
     * Enumerate with @p accept deciding candidate legality instead of
     * the built-in InstOrder/LoadValue/atomicity axioms.  Everything
     * else -- value-consistent read-from maps, per-address coherence
     * permutations, outcome recording -- is shared with enumerate(),
     * which is what makes engines layered on this (src/cat/) directly
     * comparable with the hand-coded checker.  A thin compatibility
     * wrapper over the enumeration core: @p accept sees the full
     * unpruned candidate stream, serially.  The `model` passed to the
     * constructor is ignored on this path: the filter embodies the
     * model.
     */
    litmus::OutcomeSet enumerateFiltered(const CandidateFilter &accept);

    /**
     * Drive the incremental pruned search with a custom filter (one
     * per worker from @p factory); the engine entry point for models
     * that can judge partial candidates (cat::CatEngine).  The
     * constructor's `model` is ignored: the filter embodies the model.
     */
    litmus::OutcomeSet enumerateIncremental(const FilterFactory &factory);

    /**
     * The pre-incremental pipeline, unchanged: materialize every
     * complete (rf, co) candidate, then test the built-in axioms by
     * building the whole constraint graph and checking acyclicity.
     * Exists solely as the reference side of differential tests and
     * the pruning benchmarks.
     */
    litmus::OutcomeSet enumerateLegacy();

    /** enumerateLegacy() with @p accept instead of the built-ins. */
    litmus::OutcomeSet
    enumerateFilteredLegacy(const CandidateFilter &accept);

    /**
     * Is the test's asked-about condition reachable?  Seeds
     * undetermined-value candidates with the condition's constants so
     * OOTA-style queries are decided by the axioms, not by omission.
     */
    bool isAllowed();

    const CheckerStats &stats() const { return _stats; }

  private:
    /** Shared legacy enumeration loop; @p accept null = built-ins. */
    litmus::OutcomeSet enumerateLegacyImpl(const CandidateFilter *accept);

    /**
     * Check one (rf, co) candidate family -- built-in axioms or
     * @p accept -- and record accepted outcomes (legacy path).
     */
    void checkCandidate(const std::vector<CandidateBuilder::ThreadExec> &exec,
                        litmus::OutcomeSet &outcomes,
                        const CandidateFilter *accept, uint64_t rfEpoch,
                        uint64_t shapeEpoch);

    const litmus::LitmusTest &test;
    model::ModelKind model;
    Options options;
    CheckerStats _stats;
};

/**
 * Decide several models of one test over ONE shared enumeration pass
 * (CandidateEnumerator::runMulti): the rf-candidate stream, the value
 * fixpoint and the coherence walk are model-independent, so N models
 * cost one walk plus N built-in filters instead of N walks.  Verdicts
 * and outcome sets are exactly what N Checker::enumerate() calls
 * would produce; @p stats, when given, receives each model's
 * solo-equivalent counters.  @p ppoShapes, when given, memoizes
 * preservedProgramOrder() across the pass (and across passes sharing
 * the cache -- the batched decide pipeline keeps one per batch).
 * Lanes also share work inside the pass: a lane whose ppo is a
 * superset of one that just closed a cycle rejects at once, and a
 * lane whose ppo equals an earlier lane's mirrors its verdicts (the
 * lanes run weakest model first; results come back in @p models
 * order).  The pass is serial: Options::searchThreads is ignored.
 */
std::vector<litmus::OutcomeSet>
enumerateModels(CandidateEnumerator &enumerator,
                const std::vector<model::ModelKind> &models,
                bool enforceInstOrder,
                std::vector<CheckerStats> *stats = nullptr,
                PpoCache *ppoShapes = nullptr);

} // namespace gam::axiomatic

#endif // GAM_AXIOMATIC_CHECKER_HH
