/**
 * Differential validation of the incremental pruned enumeration
 * (axiomatic/enumerate.hh) against the legacy enumerate-then-check
 * pipeline: outcome-set parity on every built-in test under every
 * model for both the hand-coded checker and the cat engine, exact
 * work accounting (every candidate the pruned search skips is counted
 * as skipped), parallel-search determinism, the static read-from
 * feasibility analysis, a fixed-seed fuzz smoke, and the 4-thread
 * IRIW/WRC+/W+RWC acceptance bar.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "axiomatic/checker.hh"
#include "base/hashing.hh"
#include "campaign/enumerate.hh"
#include "cat/engine.hh"
#include "harness/decision.hh"
#include "harness/litmus_runner.hh"
#include "litmus/generator.hh"
#include "litmus/parser.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"

namespace
{

/** Heap allocations made while countAllocations is set. */
std::atomic<bool> countAllocations{false};
std::atomic<size_t> allocations{0};

void *
countedAlloc(std::size_t size) noexcept
{
    if (countAllocations.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

/** Out of line, so the compiler never pairs an inlined free() with new. */
[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
}

} // anonymous namespace

// This binary replaces the global (non-aligned) operator new and
// delete family so tests can count the heap traffic of a code region.
// Every form allocates with malloc() and frees with free(), so a
// sanitizer's allocator never sees a new/delete pair split between
// its own operators and these.  The aligned forms are left alone:
// they are replaced as a pair or not at all.
void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace gam::axiomatic
{
namespace
{

using litmus::LitmusTest;
using model::ModelKind;

constexpr ModelKind catModels[] = {ModelKind::SC, ModelKind::TSO,
                                   ModelKind::GAM0, ModelKind::GAM};

/** Every model the axiomatic checker supports. */
std::vector<ModelKind>
axiomaticModels()
{
    std::vector<ModelKind> out;
    for (ModelKind kind : model::allModelKinds)
        if (model::supportsEngine(kind, model::Engine::Axiomatic))
            out.push_back(kind);
    return out;
}

TEST(Enumerate, PrunedMatchesLegacyOnAllBuiltinsEveryModel)
{
    for (const LitmusTest &test : litmus::allTests()) {
        for (ModelKind model : axiomaticModels()) {
            Checker legacy(test, model);
            const litmus::OutcomeSet expect = legacy.enumerateLegacy();
            Checker pruned(test, model);
            const litmus::OutcomeSet got = pruned.enumerate();
            EXPECT_EQ(got, expect)
                << test.name << " " << model::modelName(model);

            // Exact work accounting: every complete candidate is
            // either materialized or counted as skipped...
            const CheckerStats &ls = legacy.stats();
            const CheckerStats &ps = pruned.stats();
            EXPECT_EQ(ps.coCandidates + ps.subtreesSkipped,
                      ls.coCandidates)
                << test.name << " " << model::modelName(model);
            // ... and every read-from map is either tried or
            // statically skipped (static skips are value-inconsistent,
            // so they contribute no candidates above).
            EXPECT_EQ(ps.rfCandidates + ps.rfStaticSkipped,
                      ls.rfCandidates)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(ps.valueConsistent, ls.valueConsistent)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(ps.accepted, ls.accepted);
        }
    }
}

TEST(Enumerate, CatEngineMatchesItsLegacyPathOnAllBuiltins)
{
    for (const LitmusTest &test : litmus::allTests()) {
        for (ModelKind model : catModels) {
            const cat::CatModel &cm = cat::builtinCatModel(model);
            cat::CatEngine legacy(test, cm);
            const litmus::OutcomeSet expect = legacy.enumerateLegacy();
            cat::CatEngine pruned(test, cm);
            const litmus::OutcomeSet got = pruned.enumerate();
            EXPECT_EQ(got, expect)
                << test.name << " " << model::modelName(model);
            EXPECT_EQ(pruned.stats().coCandidates
                          + pruned.stats().subtreesSkipped,
                      legacy.stats().coCandidates)
                << test.name << " " << model::modelName(model);
        }
    }
}

TEST(Enumerate, FilteredWrapperReplaysTheFullCandidateStream)
{
    // enumerateFiltered() is a compatibility wrapper over the new
    // core: a pruning-free filter must see exactly the candidate
    // stream the legacy pipeline produced.
    for (const char *name : {"mp", "sb_fenced", "rmw_mutex", "corr"}) {
        const LitmusTest &test = litmus::testByName(name);
        uint64_t seen = 0;
        Checker wrapped(test, ModelKind::GAM);
        const litmus::OutcomeSet all = wrapped.enumerateFiltered(
            [&](const CandidateExecution &cand) {
                EXPECT_TRUE(cand.complete);
                ++seen;
                return true;
            });
        uint64_t legacy_seen = 0;
        Checker legacy(test, ModelKind::GAM);
        const litmus::OutcomeSet legacy_all =
            legacy.enumerateFilteredLegacy(
                [&](const CandidateExecution &) {
                    ++legacy_seen;
                    return true;
                });
        EXPECT_EQ(all, legacy_all) << name;
        EXPECT_EQ(seen, legacy_seen) << name;
        EXPECT_EQ(wrapped.stats().coCandidates, seen) << name;
    }
}

TEST(Enumerate, ParallelPrefixSearchIsDeterministic)
{
    for (const char *name : {"iriw", "dekker", "wrc_dep", "2+2w"}) {
        const LitmusTest &test = litmus::testByName(name);
        for (ModelKind model : {ModelKind::SC, ModelKind::GAM}) {
            Options serial;
            serial.searchThreads = 1;
            Checker one(test, model, serial);
            const litmus::OutcomeSet serial_out = one.enumerate();

            Options wide;
            wide.searchThreads = 4;
            Checker four(test, model, wide);
            const litmus::OutcomeSet parallel_out = four.enumerate();

            EXPECT_EQ(parallel_out, serial_out) << name;
            // The merged counters must not depend on scheduling.
            EXPECT_EQ(four.stats().coCandidates,
                      one.stats().coCandidates)
                << name;
            EXPECT_EQ(four.stats().subtreesSkipped,
                      one.stats().subtreesSkipped)
                << name;
            EXPECT_EQ(four.stats().accepted, one.stats().accepted)
                << name;
        }
    }
}

/**
 * Every test the candidate-production golden digest covers: the
 * built-in registry, the four-thread suite and the length <= 4 Full
 * campaign universe, in that order.
 */
std::vector<LitmusTest>
goldenTests()
{
    std::vector<LitmusTest> tests = litmus::allTests();
    for (const LitmusTest &t : litmus::fourThreadSuite())
        tests.push_back(t);
    campaign::EnumerateOptions universe;
    universe.maxLen = 4;
    universe.canonical = campaign::CanonicalForm::Full;
    campaign::enumerateCycles(
        universe, [&](const campaign::CanonicalCycle &cycle) {
            auto test = litmus::testFromCycle(cycle.name, cycle.edges,
                                              cycle.numLocations);
            if (test)
                tests.push_back(std::move(*test));
            return true;
        });
    return tests;
}

/** Fold one computeExecution() result into @p h. */
void
hashExecution(StateHasher &h, bool ok,
              const std::vector<CandidateBuilder::ThreadExec> &exec)
{
    h.add(ok);
    if (!ok)
        return; // a rejected map's buffers hold no defined result
    h.add(exec.size());
    for (const CandidateBuilder::ThreadExec &te : exec) {
        h.add(te.executedIdx.size());
        for (size_t k = 0; k < te.executedIdx.size(); ++k) {
            h.add(uint64_t(te.executedIdx[k]));
            h.add(uint64_t(te.trace[k].addr));
            h.add(uint64_t(te.trace[k].value));
            h.add(uint64_t(te.trace[k].rmwStored));
            h.add(uint64_t(uint32_t(te.rfTrace[k])));
        }
        for (const auto &r : te.regs)
            h.add(r ? uint64_t(*r) * 2 + 1 : 0);
    }
}

/**
 * Call @p visit(ok) after computeExecution() into @p scratch for every
 * rf map of @p test: each load ranges over InitStore and every store
 * site, as the legacy pipeline does, with the condition's constants
 * as seeds.
 */
template <typename Visit>
void
forEachRfMap(const LitmusTest &test, CandidateBuilder::Scratch &scratch,
             Visit &&visit)
{
    CandidateBuilder builder(test, withConditionSeeds(test, {}));
    const size_t nloads = builder.loadSites().size();
    std::vector<model::StoreId> choices{model::InitStore};
    choices.insert(choices.end(), builder.storeSites().begin(),
                   builder.storeSites().end());
    std::vector<size_t> odo(nloads, 0);
    std::vector<model::StoreId> rf(nloads, model::InitStore);
    for (;;) {
        for (size_t i = 0; i < nloads; ++i)
            rf[i] = choices[odo[i]];
        visit(builder.computeExecution(rf, scratch));
        size_t pos = 0;
        while (pos < nloads && ++odo[pos] == choices.size())
            odo[pos++] = 0;
        if (pos == nloads)
            break;
    }
}

/**
 * The digest of candidate production over goldenTests(): 21,071 rf
 * maps, GoldenAccepted of them value-consistent.  The pruned-vs-legacy
 * parity suites cannot catch a builder bug (both sides call the same
 * builder); this pins its output.
 *
 * The flat-table rewrite of computeExecution() reproduced the digest
 * recorded before it, 0x933b5a3de4e4e343 over 14,675 value-consistent
 * maps.  Starting every seed attempt from the unseeded fixpoint then
 * lost maps whose cycle the old carry-over had resolved, so the
 * fixpoint learned three value-independent cases (a swap's stored
 * value, x ^ x and x - x, a branch on x ? x).  Against the old digest
 * the 74 maps that changed are all newly value-consistent; none was
 * lost.
 */
constexpr uint64_t GoldenDigest = 0x18bffda0f13d3aaeull;
constexpr size_t GoldenTests = 434;
constexpr size_t GoldenAccepted = 14749;

TEST(Enumerate, CandidateProductionMatchesTheGoldenDigest)
{
    const std::vector<LitmusTest> tests = goldenTests();
    ASSERT_EQ(tests.size(), GoldenTests);

    // A fresh scratch per test.
    StateHasher fresh;
    size_t accepted = 0;
    for (const LitmusTest &test : tests) {
        CandidateBuilder::Scratch scratch;
        forEachRfMap(test, scratch, [&](bool ok) {
            hashExecution(fresh, ok, scratch.exec);
            accepted += ok;
        });
    }
    EXPECT_EQ(fresh.digest(), GoldenDigest);
    EXPECT_EQ(accepted, GoldenAccepted);

    // One long-lived scratch across tests of every size, visited
    // largest-first and then in order, must give the same results.
    std::vector<const LitmusTest *> order;
    for (const LitmusTest &test : tests)
        order.push_back(&test);
    std::stable_sort(order.begin(), order.end(),
                     [](const LitmusTest *a, const LitmusTest *b) {
                         return a->threads.size() > b->threads.size();
                     });
    CandidateBuilder::Scratch shared;
    for (const LitmusTest *test : order)
        forEachRfMap(*test, shared, [](bool) {});
    StateHasher reused;
    for (const LitmusTest &test : tests) {
        forEachRfMap(test, shared, [&](bool ok) {
            hashExecution(reused, ok, shared.exec);
        });
    }
    EXPECT_EQ(reused.digest(), GoldenDigest);
}

TEST(Enumerate, WarmCandidateProductionAllocatesNothing)
{
    // Once a scratch has seen a test, computeExecution() rewrites its
    // buffers in place: a second pass over every rf map allocates
    // nothing.  Counting starts after the first call of that pass.
    for (const LitmusTest &test : goldenTests()) {
        CandidateBuilder::Scratch scratch;
        forEachRfMap(test, scratch, [](bool) {});
        allocations = 0;
        forEachRfMap(test, scratch,
                     [](bool) { countAllocations = true; });
        countAllocations = false;
        ASSERT_EQ(allocations.load(), 0u) << test.name;
    }

    // The enumerator's walk reuses its scratch and per-epoch tables
    // across the rf stream: a whole run allocates a bounded number of
    // times (its setup and warm-up), far fewer than it has rf maps.
    // The filter vetoes every coherence extension, so the walk reaches
    // the coherence search and records no outcome.
    struct VetoPushes final : IncrementalFilter
    {
        bool
        pushStore(const CandidateExecution &, isa::Addr, int) override
        {
            return false;
        }
        bool accept(const CandidateExecution &) override { return true; }
    };
    const std::vector<LitmusTest> tests = goldenTests();
    const LitmusTest *biggest = nullptr;
    uint64_t most = 0;
    for (const LitmusTest &test : tests) {
        const CandidateBuilder builder(test, {});
        uint64_t maps = 1;
        for (const auto &c : builder.rfChoices())
            maps *= c.size();
        if (maps > most) {
            most = maps;
            biggest = &test;
        }
    }
    ASSERT_NE(biggest, nullptr);
    CandidateEnumerator enumerator(*biggest, {});
    const FilterFactory veto = [] {
        return std::make_unique<VetoPushes>();
    };
    enumerator.run(veto); // registers the metrics, warms the allocator
    allocations = 0;
    countAllocations = true;
    enumerator.run(veto);
    countAllocations = false;
    EXPECT_GE(enumerator.stats().valueConsistent, 100u) << biggest->name;
    EXPECT_LT(allocations.load(), enumerator.stats().valueConsistent / 4)
        << biggest->name;
}

TEST(Enumerate, ShapeEpochMovesOnlyWithThePathOrAnAddress)
{
    // mp: constant addresses, no branches -- every rf map has one
    // shape, so the epoch moves once, on the first call.
    {
        CandidateBuilder::Scratch scratch;
        std::set<uint64_t> epochs;
        forEachRfMap(litmus::testByName("mp"), scratch, [&](bool ok) {
            if (ok)
                epochs.insert(scratch.shapeEpoch);
        });
        EXPECT_EQ(epochs.size(), 1u);
        Checker checker(litmus::testByName("mp"), ModelKind::GAM);
        checker.enumerate();
        EXPECT_EQ(checker.stats().shapeChanges, 1u);
    }
    // mp_addr: the second load's address is the first load's value,
    // so value-consistent maps resolve it to different addresses.
    {
        CandidateBuilder::Scratch scratch;
        std::set<uint64_t> epochs;
        forEachRfMap(litmus::testByName("mp_addr"), scratch,
                     [&](bool ok) {
                         if (ok)
                             epochs.insert(scratch.shapeEpoch);
                     });
        EXPECT_GT(epochs.size(), 1u);
        Checker checker(litmus::testByName("mp_addr"), ModelKind::GAM);
        checker.enumerate();
        EXPECT_GT(checker.stats().shapeChanges, 1u);
        EXPECT_LE(checker.stats().shapeChanges,
                  checker.stats().valueConsistent);
    }
}

TEST(Enumerate, CandidateProductionIsWorkerIndependent)
{
    // Every search worker owns its builder scratch and walk tables:
    // four workers must reproduce the serial outcomes and counters
    // over the whole golden set (the TSan job runs this too).
    for (const LitmusTest &test : goldenTests()) {
        for (ModelKind model : {ModelKind::SC, ModelKind::GAM}) {
            Checker one(test, model);
            const litmus::OutcomeSet serial = one.enumerate();
            Options wide;
            wide.searchThreads = 4;
            Checker four(test, model, wide);
            EXPECT_EQ(four.enumerate(), serial) << test.name;
            EXPECT_EQ(four.stats().coCandidates, one.stats().coCandidates)
                << test.name;
            EXPECT_EQ(four.stats().accepted, one.stats().accepted)
                << test.name;
        }
    }
}

TEST(Enumerate, StaticFeasibilityPrunesConstantAddressesOnly)
{
    // mp: two loads, two stores to distinct constant addresses -- each
    // load keeps InitStore plus its own same-address store.
    {
        CandidateBuilder builder(litmus::testByName("mp"), {});
        ASSERT_EQ(builder.rfChoices().size(), 2u);
        for (const auto &choices : builder.rfChoices())
            EXPECT_EQ(choices.size(), 2u);
        EXPECT_GT(builder.rfStaticSkipped(), 0u);
    }
    // mp_addr: the second load's address depends on the first load's
    // value, so the analysis must keep every source for it.
    {
        const LitmusTest &test = litmus::testByName("mp_addr");
        CandidateBuilder builder(test, {});
        size_t stores = builder.storeSites().size();
        bool any_full = false;
        for (const auto &choices : builder.rfChoices())
            any_full |= choices.size() == stores + 1;
        EXPECT_TRUE(any_full)
            << "dependent-address load lost feasible sources";
    }
}

TEST(Enumerate, StaticFeasibilitySeesThroughTheZeroingIdiom)
{
    // iriw_addrs orders each reader's second load by an address
    // dependency written `xor t, r, r; add t, t, base`: the address is
    // base whatever r holds, so the dependent load keeps InitStore
    // plus its one same-address store, like a constant-address load.
    const auto &suite = litmus::fourThreadSuite();
    const auto it = std::find_if(
        suite.begin(), suite.end(),
        [](const LitmusTest &t) { return t.name == "iriw_addrs"; });
    ASSERT_NE(it, suite.end());
    const LitmusTest &test = *it;
    bool sawDependentLoad = false;
    for (const isa::Program &prog : test.threads)
        for (size_t k = 0; k < prog.size(); ++k)
            sawDependentLoad |= prog[k].op == isa::Opcode::XOR
                && prog[k].src1 == prog[k].src2;
    EXPECT_TRUE(sawDependentLoad) << "iriw_addrs lost its idiom";

    CandidateBuilder builder(test, {});
    ASSERT_EQ(builder.loadSites().size(), 4u);
    ASSERT_EQ(builder.storeSites().size(), 2u);
    for (const auto &choices : builder.rfChoices())
        EXPECT_EQ(choices.size(), 2u);

    // The skipped maps are still exactly accounted for, and no
    // outcome is lost, under every model.
    for (ModelKind model : axiomaticModels()) {
        Checker legacy(test, model);
        const litmus::OutcomeSet expect = legacy.enumerateLegacy();
        Checker pruned(test, model);
        EXPECT_EQ(pruned.enumerate(), expect) << model::modelName(model);
        EXPECT_EQ(pruned.stats().rfCandidates
                      + pruned.stats().rfStaticSkipped,
                  legacy.stats().rfCandidates)
            << model::modelName(model);
        EXPECT_EQ(pruned.stats().valueConsistent,
                  legacy.stats().valueConsistent)
            << model::modelName(model);
    }
}

TEST(Enumerate, PruningActuallyPrunes)
{
    // Under SC almost every interleaving-violating candidate dies
    // early: the pruned search must materialize strictly fewer
    // complete candidates than the legacy pipeline on iriw.
    const LitmusTest &test = litmus::testByName("iriw");
    Checker legacy(test, ModelKind::SC);
    legacy.enumerateLegacy();
    Checker pruned(test, ModelKind::SC);
    pruned.enumerate();
    EXPECT_LT(pruned.stats().coCandidates,
              legacy.stats().coCandidates);
    EXPECT_GT(pruned.stats().subtreesSkipped
                  + pruned.stats().rfStaticSkipped,
              0u);
}

TEST(Enumerate, FuzzSmokeNewVersusLegacyAtFixedSeed)
{
    // A deterministic mini-campaign: generated tests, both engines,
    // new vs legacy outcome parity under every cat model.
    constexpr uint64_t seed = 31;
    for (uint64_t i = 0; i < 25; ++i) {
        const LitmusTest test = litmus::generateTest(seed, i);
        ASSERT_FALSE(test.check().has_value()) << *test.check();
        for (ModelKind model : catModels) {
            Checker legacy(test, model);
            const litmus::OutcomeSet expect = legacy.enumerateLegacy();
            Checker pruned(test, model);
            EXPECT_EQ(pruned.enumerate(), expect)
                << "seed " << seed << " index " << i << " "
                << model::modelName(model);
        }
        // The cat engine on a sample of the stream (it costs ~2x).
        if (i % 5 == 0) {
            const cat::CatModel &cm =
                cat::builtinCatModel(ModelKind::GAM);
            cat::CatEngine legacy_cat(test, cm);
            cat::CatEngine pruned_cat(test, cm);
            EXPECT_EQ(pruned_cat.enumerate(),
                      legacy_cat.enumerateLegacy())
                << "seed " << seed << " index " << i;
        }
    }
}

TEST(Enumerate, FourThreadSuiteShapes)
{
    const auto &suite = litmus::fourThreadSuite();
    ASSERT_EQ(suite.size(), 8u);
    std::set<std::string> names;
    for (const LitmusTest &test : suite) {
        EXPECT_FALSE(test.check().has_value())
            << test.name << ": " << *test.check();
        names.insert(test.name);
    }
    EXPECT_EQ(names.size(), suite.size()) << "duplicate names";

    // The IRIW family is genuinely 4-threaded; WRC/W+RWC are 3.
    for (const char *name : {"iriw_pos", "iriw_addrs", "iriw_fences",
                             "wrc_coe_w"}) {
        const auto it = std::find_if(
            suite.begin(), suite.end(),
            [&](const LitmusTest &t) { return t.name == name; });
        ASSERT_NE(it, suite.end()) << name;
        EXPECT_EQ(it->threads.size(), 4u) << name;
    }
}

TEST(Enumerate, FourThreadCorpusIsPinnedAndCurrent)
{
    // tests/corpus/<name>.litmus pins each named-family test with its
    // per-model verdicts.  Regenerate with
    // `gam-litmus gen --four-thread --out tests/corpus` on mismatch.
    const std::vector<ModelKind> models(std::begin(catModels),
                                        std::end(catModels));
    for (LitmusTest test : litmus::fourThreadSuite()) {
        harness::annotateExpected(test, models);
        const std::string path = std::string(GAM_CORPUS_DIR) + "/"
            + test.name + ".litmus";
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << "missing pinned corpus file " << path;
        std::ostringstream pinned;
        pinned << in.rdbuf();
        EXPECT_EQ(pinned.str(), litmus::printLitmus(test))
            << path << " is stale";
    }
}

TEST(Enumerate, TestFromCycleRejectsUnrealisableSpecs)
{
    using K = litmus::CycleEdge;
    // One communication edge only: no cycle across threads.
    EXPECT_FALSE(litmus::testFromCycle(
        "bad", {{K::Kind::Rfe}, {K::Kind::Po}, {K::Kind::Po}}, 2));
    // A location walk that does not close.
    EXPECT_FALSE(litmus::testFromCycle(
        "bad",
        {{K::Kind::Rfe}, {K::Kind::Po, isa::FenceKind::SS, 1},
         {K::Kind::Fre}},
        2));
    // Too short.
    EXPECT_FALSE(litmus::testFromCycle(
        "bad", {{K::Kind::Rfe}, {K::Kind::Fre}}, 2));
}

TEST(Enumerate, FourThreadIriwDecidedCompleteByBothEngines)
{
    // The acceptance bar: a 4-thread IRIW-family test decided to
    // completion by the axiomatic *and* cat engines within default
    // budgets, with the expected per-model verdicts.
    const auto &suite = litmus::fourThreadSuite();
    const auto iriw = std::find_if(
        suite.begin(), suite.end(),
        [](const LitmusTest &t) { return t.name == "iriw_pos"; });
    ASSERT_NE(iriw, suite.end());

    const std::map<ModelKind, bool> expect = {
        {ModelKind::SC, false},
        {ModelKind::TSO, false},
        {ModelKind::GAM0, true},
        {ModelKind::GAM, true},
    };
    harness::DecisionCache cache;
    for (auto [model, allowed] : expect) {
        for (auto engine : {harness::EngineSelect::Axiomatic,
                            harness::EngineSelect::Cat}) {
            harness::Query query;
            query.test = &*iriw;
            query.model = model;
            query.engine = engine;
            const harness::Decision d = harness::decide(query, &cache);
            EXPECT_TRUE(d.complete)
                << model::modelName(model) << " "
                << model::engineName(d.engine);
            EXPECT_EQ(d.allowed, allowed)
                << model::modelName(model) << " "
                << model::engineName(d.engine);
            EXPECT_TRUE(
                model::engineUsesCandidateEnumeration(d.engine));
            EXPECT_GT(d.enumStats.rfCandidates, 0u);
        }
    }
}

TEST(Enumerate, DecisionCarriesEnumerationCounters)
{
    const LitmusTest &test = litmus::testByName("iriw");
    harness::DecisionCache cache;
    harness::Query query;
    query.test = &test;
    query.model = ModelKind::SC;
    query.engine = harness::EngineSelect::Axiomatic;
    const harness::Decision cold = harness::decide(query, &cache);
    EXPECT_GT(cold.enumStats.rfCandidates, 0u);
    EXPECT_GT(cold.enumStats.subtreesSkipped
                  + cold.enumStats.rfStaticSkipped,
              0u);
    // Cached decisions replay the counters of the producing run.
    const harness::Decision warm = harness::decide(query, &cache);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.enumStats.rfCandidates, cold.enumStats.rfCandidates);
    EXPECT_EQ(warm.enumStats.subtreesSkipped,
              cold.enumStats.subtreesSkipped);

    // Operational decisions carry no enumeration counters.
    query.engine = harness::EngineSelect::Operational;
    const harness::Decision op = harness::decide(query, &cache);
    EXPECT_EQ(op.enumStats.rfCandidates, 0u);
    EXPECT_EQ(op.enumStats.coCandidates, 0u);
}

} // namespace
} // namespace gam::axiomatic
