/**
 * @file
 * The campaign workload: runCampaign over the length-<=5
 * CanonicalForm::Full universe, 4 models, axiomatic engine.  Every
 * round is two passes:
 *
 * cold     into a fresh store: the engine-bound write side (prescreen,
 *          ppo, rf and coherence walks of the fused batch path, store
 *          appends);
 * resumed  over the store the cold pass just filled, reopened as a
 *          restarted campaign would: the read side (recovery, lookup,
 *          enumeration, lowering, fingerprinting), engines idle.
 *
 * One operation is one decision.  The universe takes no seed; the seed
 * drives the verification sample, which re-decides stored verdicts
 * with the operational engine (the paper's equivalence theorem,
 * checked by an independent engine).
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "analysis/prescreen.hh"
#include "axiomatic/checker.hh"
#include "base/rng.hh"
#include "campaign/driver.hh"
#include "campaign/store.hh"
#include "litmus/generator.hh"
#include "model/engine.hh"
#include "model/kind.hh"
#include "obs/trace.hh"
#include "perfbench.hh"

namespace perfbench
{
namespace
{

using namespace gam;
using model::ModelKind;

/** Units per decideBatch chunk in the driver's batched pipeline. */
constexpr size_t ChunkUnits = 64;
/** Units whose stored verdicts the operational engine re-decides. */
constexpr size_t VerifyUnits = 48;
/**
 * Resumed passes per round.  A resumed pass is ~40x shorter than a
 * cold one, so a round repeats it to give its best time as many
 * samples as a run has cold passes times this.
 */
constexpr size_t ResumedPerRound = 4;

campaign::CampaignOptions
campaignOptions(const Options &options)
{
    campaign::CampaignOptions o;
    o.enumerate.maxLen = 5;
    o.enumerate.canonical = campaign::CanonicalForm::Full;
    o.threads = options.workers;
    return o;
}

/** The deduped, lowered universe, in the driver's unit order. */
struct Universe
{
    std::vector<litmus::LitmusTest> tests;
    campaign::EnumerateStats stats;
};

/**
 * Enumerate, lower and dedupe by fingerprint, as the campaign driver's
 * prepare step does; each step is one call into its layer on @p clock.
 */
Universe
buildUniverse(const campaign::EnumerateOptions &options, LayerClock &clock)
{
    std::vector<campaign::CanonicalCycle> cycles;
    Universe u;
    u.stats = clock.time("campaign.enumerate", [&] {
        return campaign::enumerateCycles(
            options, [&](const campaign::CanonicalCycle &cycle) {
                cycles.push_back(cycle);
                return true;
            });
    });
    std::unordered_set<uint64_t> seen;
    for (const campaign::CanonicalCycle &cycle : cycles) {
        auto test = clock.time("litmus.lower", [&] {
            return litmus::testFromCycle(cycle.name, cycle.edges,
                                         cycle.numLocations);
        });
        if (!test)
            throw std::runtime_error("universe cycle failed to lower: "
                                     + cycle.name);
        const uint64_t fp = clock.time(
            "litmus.fingerprint", [&] { return litmus::fingerprint(*test); });
        if (seen.insert(fp).second)
            u.tests.push_back(std::move(*test));
    }
    return u;
}

std::string
passJson(const campaign::CampaignResult &result, bool resumed,
         double seconds)
{
    std::ostringstream out;
    out << "{\"resumed\": " << (resumed ? "true" : "false")
        << ", \"decisions\": " << result.decisions
        << ", \"units\": " << result.units
        << ", \"store_hits\": " << result.storeHits
        << ", \"prescreened\": " << result.prescreened
        << ", \"seconds\": " << seconds << ", \"allowed\": {";
    const char *sep = "";
    for (const campaign::PairTally &t : result.tallies) {
        out << sep << jsonString(model::modelName(t.model)) << ": "
            << t.allowed;
        sep = ", ";
    }
    out << "}, \"decided\": {";
    sep = "";
    for (const campaign::PairTally &t : result.tallies) {
        out << sep << jsonString(model::modelName(t.model)) << ": "
            << t.decided;
        sep = ", ";
    }
    out << "}}";
    return out.str();
}

/** One timed campaign pass over the store at @p storePath. */
struct Pass
{
    campaign::CampaignResult result;
    campaign::StoreStats store;
    bool resumed = false;
    double seconds = 0.0;
    double cpuSeconds = 0.0;
};

Pass
runPass(const campaign::CampaignOptions &options,
        const std::string &storePath, bool resumed)
{
    Pass pass;
    pass.resumed = resumed;
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    {
        campaign::DecisionStore store(storePath);
        pass.result = campaign::runCampaign(options, &store);
        pass.store = store.stats();
    }
    pass.seconds = secondsSince(start);
    pass.cpuSeconds = cpuSeconds() - cpu0;
    return pass;
}

/**
 * Re-decide a seeded sample of the store's verdicts with the
 * operational engine (no cache, no store, no prescreen): every
 * decision must be complete and agree with the stored verdict.
 */
void
verifyWithOperational(const Options &options, const Universe &universe,
                      const std::string &storePath, Report &report)
{
    campaign::DecisionStore store(storePath);
    Rng rng(options.seed ^ 0x5eed0f0ca3a19aULL);
    uint64_t checked = 0, failed = 0;
    for (size_t i = 0; i < VerifyUnits; ++i) {
        const litmus::LitmusTest &test =
            universe.tests[rng.range(universe.tests.size())];
        const std::vector<campaign::StoreRecord> records =
            store.recordsForTest(litmus::fingerprint(test));
        for (ModelKind m : campaignOptions(options).models) {
            harness::Query q;
            q.test = &test;
            q.model = m;
            q.engine = harness::EngineSelect::Operational;
            q.options.prescreen = false;
            const harness::Decision d = harness::decide(q, nullptr, nullptr);
            bool found = false, agree = false;
            for (const campaign::StoreRecord &r : records)
                if (r.model == m) {
                    found = true;
                    agree = r.allowed == d.allowed;
                }
            ++checked;
            if (!found || !agree || !d.complete)
                ++failed;
        }
    }
    report.attempted += checked;
    report.failed += failed;
    std::ostringstream out;
    out << "{\"decisions\": " << checked << ", \"failed\": " << failed
        << "}";
    report.checks["operational_sample"] = out.str();
}

/** Every pass's tallies, for run.py's reference check. */
void
recordPasses(const std::vector<Pass> &passes, Report &report)
{
    std::string list = "[";
    for (const Pass &p : passes) {
        report.attempted += p.result.decisions;
        list += (list.size() > 1 ? ", " : "")
            + passJson(p.result, p.resumed, p.seconds);
    }
    report.checks["passes"] = list + "]";
}

void
removeStore(const std::string &path)
{
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
}

/** One round: a cold pass into a fresh store at @p storePath, then
 *  ResumedPerRound resumed passes over it. */
std::vector<Pass>
runRound(const campaign::CampaignOptions &options,
         const std::string &storePath)
{
    removeStore(storePath);
    std::vector<Pass> round;
    round.push_back(runPass(options, storePath, false));
    for (size_t i = 0; i < ResumedPerRound; ++i)
        round.push_back(runPass(options, storePath, true));
    return round;
}

/** The round's two work items: its cold pass and its fastest resumed
 *  pass. */
std::vector<double>
roundSeconds(const std::vector<Pass> &round)
{
    double resumed = round[1].seconds;
    for (size_t i = 2; i < round.size(); ++i)
        resumed = std::min(resumed, round[i].seconds);
    return {round[0].seconds, resumed};
}

/**
 * The timed region: whole rounds, at least three, and after those only
 * while the fastest round so far still fits in --seconds.  The two
 * passes are the work items: ops_per_s is a round's decisions over the
 * sum of the fastest cold and the fastest resumed pass; call_p50_us
 * (nearest rank of two) is the fastest resumed pass and call_p99_us
 * the fastest cold pass.
 */
void
timedRounds(const Options &options,
            const campaign::CampaignOptions &campaign,
            const std::string &storePath, Setup &setup, Report &report)
{
    std::vector<Pass> passes;
    BestOf best;
    const Clock::time_point start = Clock::now();
    while (best.rounds() < 3
           || secondsSince(start) + best.total() < options.seconds) {
        const std::vector<Pass> round = runRound(campaign, storePath);
        best.add(roundSeconds(round));
        passes.insert(passes.end(), round.begin(), round.end());
        setup.repeat();
    }
    best.report(report, double(passes[0].result.decisions
                               + passes[1].result.decisions));
    recordPasses(passes, report);
}

/**
 * The traced run's program rounds: @p pairs untraced and traced
 * rounds, alternating.  The registry delta and the store hit ratio
 * (of the resumed passes) cover the traced rounds, cpu_util the
 * untraced ones, and obs.trace_overhead_ratio is the traced ÷
 * untraced rate, each from the per-pass bests.
 */
RegistryDelta
programRounds(const Options &options,
              const campaign::CampaignOptions &campaign,
              const std::string &storePath, unsigned pairs,
              Report &report)
{
    RegistryDelta registry;
    std::vector<Pass> passes;
    BestOf untraced, traced;
    double cpu = 0.0, wall = 0.0;
    uint64_t storeHits = 0, storeLoads = 0;
    for (unsigned i = 0; i < pairs; ++i) {
        std::vector<Pass> round = runRound(campaign, storePath);
        untraced.add(roundSeconds(round));
        for (const Pass &p : round) {
            cpu += p.cpuSeconds;
            wall += p.seconds;
        }
        passes.insert(passes.end(), round.begin(), round.end());

        registry.begin();
        {
            TracingOn on;
            round = runRound(campaign, storePath);
        }
        registry.end();
        traced.add(roundSeconds(round));
        for (size_t p = 1; p < round.size(); ++p) {
            storeHits += round[p].store.hits;
            storeLoads += round[p].store.hits + round[p].store.misses;
        }
        passes.insert(passes.end(), round.begin(), round.end());
    }
    recordPasses(passes, report);
    report.set("obs.trace_overhead_ratio",
               ratio(untraced.total(), traced.total()), pairs);
    report.set("campaign.driver.cpu_util",
               ratio(cpu, double(options.workers) * wall), pairs);
    report.set("campaign.store.hit_ratio", ratio(storeHits, storeLoads),
               storeLoads);
    return registry;
}

/**
 * The traced layer pass: the campaign pipeline re-driven serially
 * from the benchmark, one timed call into each layer's public
 * function per step -- enumerate, lower, fingerprint, cache lookup,
 * store open/load, prescreen, fused axiomatic enumeration, store
 * append, cache insert -- in the driver's 64-unit chunks, each with a
 * fresh PpoCache as decideBatch keeps one per batch.  Like a round, it
 * runs twice over one store: cold into a fresh store, then resumed.
 */
void
layerPass(const campaign::CampaignOptions &options,
          const std::string &storePath, Report &report)
{
    LayerClock clock;
    uint64_t screened = 0, resolved = 0, ppoShapes = 0;
    axiomatic::CheckerStats engineStats;
    campaign::EnumerateStats enumerated;
    const Clock::time_point start = Clock::now();
    removeStore(storePath);
    for (int pass = 0; pass < 2; ++pass) {
        const Universe u = buildUniverse(options.enumerate, clock);
        enumerated = u.stats;
        auto store = clock.time("campaign.store.open", [&] {
            return std::make_unique<campaign::DecisionStore>(storePath);
        });
        harness::DecisionCache cache(options.cacheEntries);
        harness::RunOptions run = options.run;
        run.threads = 1;

        for (size_t begin = 0; begin < u.tests.size(); begin += ChunkUnits) {
            axiomatic::PpoCache ppo;
            const size_t end = std::min(u.tests.size(), begin + ChunkUnits);
            for (size_t t = begin; t < end; ++t) {
                const litmus::LitmusTest &test = u.tests[t];
                std::vector<harness::Query> need;
                std::vector<uint64_t> keys;
                for (ModelKind m : options.models) {
                    harness::Query q;
                    q.test = &test;
                    q.model = m;
                    q.engine = harness::EngineSelect::Axiomatic;
                    q.options = run;
                    const uint64_t key = clock.time("litmus.fingerprint", [&] {
                        return harness::queryKey(q, model::Engine::Axiomatic);
                    });
                    if (clock.time("harness.cache.lookup",
                                   [&] { return cache.lookup(key); }))
                        continue;
                    if (clock.time("campaign.store.load",
                                   [&] { return store->load(key); }))
                        continue;
                    need.push_back(q);
                    keys.push_back(key);
                }
                if (need.empty())
                    continue;

                std::vector<analysis::PrescreenVerdict> verdicts;
                clock.time("analysis.prescreen", [&] {
                    analysis::PrescreenAnalysis analysis(test);
                    for (const harness::Query &q : need)
                        verdicts.push_back(analysis.screen(q.model).verdict);
                });
                std::vector<ModelKind> lanes;
                std::vector<ModelKind> laneOf(need.size(), ModelKind::SC);
                for (size_t i = 0; i < need.size(); ++i) {
                    ++screened;
                    if (verdicts[i] != analysis::PrescreenVerdict::Unknown)
                        ++resolved;
                    if (verdicts[i] == analysis::PrescreenVerdict::Forbidden)
                        continue;
                    laneOf[i] =
                        verdicts[i] == analysis::PrescreenVerdict::ScEquivalent
                        ? ModelKind::SC : need[i].model;
                    if (std::find(lanes.begin(), lanes.end(), laneOf[i])
                        == lanes.end())
                        lanes.push_back(laneOf[i]);
                }
                std::vector<litmus::OutcomeSet> outcomes;
                if (!lanes.empty())
                    outcomes = clock.time("axiomatic.enumerate", [&] {
                        axiomatic::CandidateEnumerator enumerator(
                            test, axiomatic::withConditionSeeds(
                                      test, run.axiomatic));
                        std::vector<axiomatic::CheckerStats> laneStats;
                        auto sets = axiomatic::enumerateModels(
                            enumerator, lanes, true, &laneStats, &ppo);
                        for (const axiomatic::CheckerStats &st : laneStats)
                            engineStats.merge(st);
                        return sets;
                    });

                for (size_t i = 0; i < need.size(); ++i) {
                    harness::Decision d;
                    if (verdicts[i] == analysis::PrescreenVerdict::Forbidden) {
                        d.prescreened = harness::PrescreenKind::ValueCover;
                    } else {
                        const size_t lane =
                            std::find(lanes.begin(), lanes.end(), laneOf[i])
                            - lanes.begin();
                        d.outcomes = outcomes[lane];
                        for (const litmus::Outcome &o : d.outcomes)
                            d.allowed = d.allowed || test.conditionMatches(o);
                        if (laneOf[i] != need[i].model)
                            d.prescreened = harness::PrescreenKind::ScDelegate;
                    }
                    clock.time("campaign.store.append",
                               [&] { store->store(keys[i], need[i], d); });
                    if (d.prescreened != harness::PrescreenKind::ValueCover)
                        clock.time("harness.cache.insert",
                                   [&] { cache.insert(keys[i], d); });
                }
            }
            ppoShapes += ppo.size();
        }
        clock.time("campaign.store.close", [&] { store.reset(); });
    }

    report.setLayerShares(clock, secondsSince(start));
    report.set("analysis.prescreen.resolved_ratio",
               ratio(resolved, screened), screened);
    report.set("model.ppo.shapes", double(ppoShapes), ppoShapes);
    setAxiomaticStats(engineStats, report);
    const campaign::EnumerateStats &e = enumerated;
    const uint64_t attempts = e.emitted + e.rotationDuplicates
        + e.unrealisable + e.symmetryDuplicates;
    report.set("campaign.enumerate.classes", double(e.emitted), e.emitted);
    report.set("campaign.enumerate.useful_ratio", ratio(e.emitted, attempts),
               attempts);
}

} // namespace

void
runCampaignWorkload(const Options &options, Report &report)
{
    const campaign::CampaignOptions campaign = campaignOptions(options);
    const std::string storePath = options.outDir + "/campaign.store";
    Universe universe;
    Setup setup([&] {
        LayerClock unused;
        universe = buildUniverse(campaign.enumerate, unused);
    });

    if (!options.trace) {
        timedRounds(options, campaign, storePath, setup, report);
    } else {
        const RegistryDelta registry =
            programRounds(options, campaign, storePath, 3, report);
        setRegistryMetrics(registry, report);
        const std::string layerStore = options.outDir + "/layer.store";
        TracingOn on;
        layerPass(campaign, layerStore, report);
    }
    setup.report(report);
    verifyWithOperational(options, universe, storePath, report);
}

} // namespace perfbench
