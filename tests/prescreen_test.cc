/**
 * @file
 * Differential soundness tests for the static litmus pre-screen
 * (analysis/prescreen.hh) and its decide() integration.
 *
 * The pre-screen may only ever short-circuit a decision to the answer
 * the real engine would have produced.  The tests here enforce that
 * exhaustively on the built-in corpus (every test x every model x both
 * enumeration engines) and statistically on a fixed-seed generator
 * sweep, with fresh caches on both sides so no memoized result can
 * paper over a divergence.  They also pin that the pre-screen actually
 * fires on the built-in corpus -- a pre-screen that never triggers
 * would pass every soundness check vacuously.
 */

#include <array>
#include <cstdio>
#include <unordered_set>

#include <gtest/gtest.h>

#include "analysis/prescreen.hh"
#include "campaign/enumerate.hh"
#include "harness/decision.hh"
#include "harness/litmus_runner.hh"
#include "litmus/generator.hh"
#include "litmus/suite.hh"
#include "litmus/test.hh"
#include "model/engine.hh"

namespace
{

using gam::analysis::prescreen;
using gam::analysis::PrescreenAnalysis;
using gam::analysis::PrescreenVerdict;
using gam::harness::Decision;
using gam::harness::DecisionCache;
using gam::harness::EngineSelect;
using gam::harness::PrescreenKind;
using gam::harness::Query;
using gam::model::Engine;
using gam::model::ModelKind;

const std::vector<ModelKind> kModels = {
    ModelKind::SC, ModelKind::TSO, ModelKind::GAM0, ModelKind::GAM};

/**
 * Decide @p test with the pre-screen on and off (separate fresh
 * caches) and fail on any divergence.  Returns the on-side decision
 * so callers can aggregate hit counts.
 */
Decision
checkOne(const gam::litmus::LitmusTest &test, ModelKind model,
         EngineSelect engine, DecisionCache *on_cache,
         DecisionCache *off_cache)
{
    Query query;
    query.test = &test;
    query.model = model;
    query.engine = engine;

    query.options.prescreen = true;
    const Decision on = gam::harness::decide(query, on_cache);
    query.options.prescreen = false;
    const Decision off = gam::harness::decide(query, off_cache);

    EXPECT_EQ(on.allowed, off.allowed)
        << test.name << " under " << gam::model::modelName(model)
        << " (" << gam::model::engineName(off.engine) << "): "
        << "prescreen=" << prescreenKindName(on.prescreened);
    EXPECT_TRUE(on.complete);
    EXPECT_TRUE(off.complete);
    // An SC-delegated decision claims the full outcome set; hold it to
    // that.  (ValueCover decisions carry no outcomes by construction.)
    if (on.prescreened == PrescreenKind::ScDelegate) {
        EXPECT_EQ(on.outcomes, off.outcomes) << test.name;
    }
    return on;
}

TEST(Prescreen, SoundOnBuiltinCorpusBothEngines)
{
    size_t hits = 0;
    size_t decisions = 0;
    for (const EngineSelect engine :
         {EngineSelect::Axiomatic, EngineSelect::Cat}) {
        DecisionCache on_cache;
        DecisionCache off_cache;
        for (const auto &test : gam::litmus::allTests()) {
            for (ModelKind model : kModels) {
                const Engine resolved =
                    engine == EngineSelect::Axiomatic ? Engine::Axiomatic
                                                      : Engine::Cat;
                if (!gam::model::supportsEngine(model, resolved))
                    continue;
                const Decision d = checkOne(test, model, engine,
                                            &on_cache, &off_cache);
                ++decisions;
                hits += d.prescreened != PrescreenKind::None;
            }
        }
    }
    // The pre-screen must do real work on the shipped corpus; a zero
    // hit count means the soundness sweep proved nothing.
    EXPECT_GT(hits, 0u);
    std::printf("[ prescreen ] builtin corpus: %zu/%zu decisions "
                "short-circuited\n", hits, decisions);
}

TEST(Prescreen, SoundOnGeneratedTests)
{
    constexpr uint64_t kSeed = 20260808;
    constexpr uint64_t kTests = 500;
    DecisionCache on_cache;
    DecisionCache off_cache;
    size_t hits = 0;
    size_t decisions = 0;
    for (uint64_t i = 0; i < kTests; ++i) {
        const gam::litmus::LitmusTest test =
            gam::litmus::generateTest(kSeed, i);
        ASSERT_FALSE(test.check().has_value()) << test.name;
        for (ModelKind model : kModels) {
            const Decision d =
                checkOne(test, model, EngineSelect::Axiomatic,
                         &on_cache, &off_cache);
            ++decisions;
            hits += d.prescreened != PrescreenKind::None;
        }
    }
    std::printf("[ prescreen ] %llu generated tests: %zu/%zu decisions "
                "short-circuited\n",
                static_cast<unsigned long long>(kTests), hits,
                decisions);
}

// The analysis layer's own verdicts, independent of decide():
// spot-check the two short-circuit shapes on corpus tests whose
// structure forces them.
TEST(Prescreen, ValueCoverRejectsUnsatisfiableFinals)
{
    // mp asks for r1=1, r2=0 -- satisfiable, so no value-cover claim;
    // rewriting the condition to a value no store writes must trip it.
    for (const auto &test : gam::litmus::allTests()) {
        if (test.name != "mp")
            continue;
        gam::litmus::LitmusTest bogus = test;
        ASSERT_FALSE(bogus.regCond.empty());
        bogus.regCond[0].value = 0x7777; // nothing ever stores this
        const auto r = prescreen(bogus, ModelKind::GAM);
        EXPECT_EQ(r.verdict, PrescreenVerdict::Forbidden) << r.detail;
        const auto sane = prescreen(test, ModelKind::GAM);
        EXPECT_NE(sane.verdict, PrescreenVerdict::Forbidden);
        return;
    }
    FAIL() << "builtin test 'mp' not found";
}

TEST(Prescreen, ScDelegateOnFullyFencedTests)
{
    // Every po-adjacent pair in mp_fenced and iriw_fenced is ordered
    // by a fence, so GAM's ppo provably covers po and the outcome set
    // equals SC's.
    size_t found = 0;
    for (const auto &test : gam::litmus::allTests()) {
        if (test.name != "mp_fenced" && test.name != "iriw_fenced")
            continue;
        ++found;
        const auto r = prescreen(test, ModelKind::GAM);
        EXPECT_EQ(r.verdict, PrescreenVerdict::ScEquivalent)
            << test.name << ": " << r.detail;
    }
    EXPECT_EQ(found, 2u);
}

TEST(Prescreen, UnknownModelsNeverDelegate)
{
    // ARM's operational outcomes are conservative (not exact), so the
    // delegate path must not claim outcome equality for it.
    for (const auto &test : gam::litmus::allTests()) {
        const auto r = prescreen(test, ModelKind::ARM);
        EXPECT_NE(r.verdict, PrescreenVerdict::ScEquivalent)
            << test.name;
    }
}

TEST(Prescreen, VerdictCensusOnLength4FullUniverse)
{
    // The analysis's verdicts over every canonical test of the
    // length <= 4 full-quotient campaign universe, pinned per model:
    // any change to the value fixpoint or the delegate rules that
    // moves a single verdict shows up here, in either direction.
    gam::campaign::EnumerateOptions opt;
    opt.maxLen = 4;
    opt.canonical = gam::campaign::CanonicalForm::Full;
    // Unknown / Forbidden / ScEquivalent per model, in kModels order.
    std::array<std::array<size_t, 3>, 4> census{};
    std::unordered_set<uint64_t> seen;
    size_t tests = 0;
    gam::campaign::enumerateCycles(
        opt, [&](const gam::campaign::CanonicalCycle &cycle) {
            auto test = gam::litmus::testFromCycle(
                cycle.name, cycle.edges, cycle.numLocations);
            // Lowered tests are deduplicated by fingerprint, as the
            // campaign driver does.
            if (!test || !seen.insert(gam::litmus::fingerprint(*test)).second)
                return true;
            ++tests;
            const PrescreenAnalysis analysis(*test);
            for (size_t m = 0; m < kModels.size(); ++m) {
                const auto r = analysis.screen(kModels[m]);
                EXPECT_EQ(r.verdict, prescreen(*test, kModels[m]).verdict)
                    << test->name;
                ++census[m][size_t(r.verdict)];
            }
            return true;
        });
    EXPECT_EQ(tests, 392u);
    const std::array<std::array<size_t, 3>, 4> expect = {{
        {392, 0, 0},   // SC
        {101, 0, 291}, // TSO
        {167, 0, 225}, // GAM0
        {152, 0, 240}, // GAM
    }};
    for (size_t m = 0; m < kModels.size(); ++m)
        EXPECT_EQ(census[m], expect[m])
            << gam::model::modelName(kModels[m]);
}

} // namespace
