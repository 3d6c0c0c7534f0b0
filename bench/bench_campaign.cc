/**
 * @file
 * Campaign throughput: batched pipeline vs. a per-query baseline,
 * cold vs. store-resumed, and the symmetry quotient.
 *
 * Three sections, each printing its numbers and contributing gates:
 *
 *  1. **Batched pipeline speedup.**  The same bounded universe (every
 *     canonical cycle up to length 4, the four cat-and-axiom models,
 *     axiomatic engine) is decided twice on the same 2 workers: by a
 *     per-query loop local to this bench -- runCampaign()'s own work
 *     list (campaign::prepareUnits), each worker pulling one unit at a
 *     time and calling decide() (a batch of size 1) once per (unit,
 *     model), into a store that flushes every record -- and by
 *     runCampaign() with today's defaults (64-unit decideBatch chunks,
 *     group-buffered store).  Gate: the campaign must be >= 2x the
 *     baseline's decisions/second.  Both sides have the same workers,
 *     so the ratio is what the batches buy: one fused enumeration
 *     deciding every model of a test, the batch's shared memos and
 *     the buffered store.
 *
 *  2. **Store resume.**  The campaign runs again against its populated
 *     store.  Gates: >= 99% of the resumed decisions served from the
 *     store (a drop means persisted keys stopped matching decide()'s
 *     query keys), and the resumed pass >= 3x faster than the cold one
 *     (verdict-only reconstruction is hash-map lookups).
 *
 *     Each pass of sections 1-2 lasts well under a second, so each
 *     side is timed as the best of three interleaved rounds: the
 *     minimum drops the rounds a busy host slowed down.
 *
 *  3. **Symmetry quotient.**  Enumerates the length-<=6 universe in
 *     both canonical forms and a length-7 fence/dep-free slice, then
 *     decides the slice.  Gate: the full quotient (rotation x
 *     reversal x value/address renaming) must shrink the rotation
 *     universe >= 1.5x at length <= 6 -- the reduction that makes
 *     length 7 reachable at all.
 *
 * Emits BENCH_campaign.json (sections 1-2) and
 * BENCH_campaign_symmetry.json (section 3) in the gam-metrics-v1
 * snapshot schema for CI artifact upload and trend tracking; the
 * gates ride along as gauges (bench.campaign.gate_*).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "base/thread_pool.hh"
#include "campaign/driver.hh"
#include "campaign/store.hh"
#include "harness/decision.hh"
#include "harness/litmus_runner.hh"
#include "litmus/generator.hh"
#include "obs/registry.hh"

namespace
{

using namespace gam;

campaign::CampaignResult
pass(const campaign::CampaignOptions &options,
     campaign::DecisionStore *store, double *wall)
{
    const auto start = std::chrono::steady_clock::now();
    const campaign::CampaignResult result =
        campaign::runCampaign(options, store);
    *wall = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    return result;
}

/**
 * The per-query baseline: runCampaign()'s own work list
 * (campaign::prepareUnits), decided with one harness::decide() per
 * (unit, model, engine) on options.threads workers that pull units
 * one at a time from a shared cursor, backed by a shared private cache
 * and a store at @p path that flushes every record.  Returns the
 * number of decisions.
 */
uint64_t
perQueryPass(const campaign::CampaignOptions &options, const char *path,
             double *wall)
{
    std::remove(path);
    uint64_t decisions = 0;
    {
        campaign::StoreOptions per_record;
        per_record.flushEveryRecords = 1;
        per_record.flushIntervalMs = 0;
        campaign::DecisionStore store(path, per_record);
        const auto start = std::chrono::steady_clock::now();
        const campaign::CampaignUnits units =
            campaign::prepareUnits(options);
        harness::DecisionCache cache(options.cacheEntries);
        harness::RunOptions run = options.run;
        run.threads = 1; // as in runCampaign(): parallel across units
        std::atomic<size_t> cursor{0};
        ThreadPool pool(options.threads);
        for (unsigned w = 0; w < pool.threadCount(); ++w) {
            pool.submit([&] {
                for (;;) {
                    const size_t i =
                        cursor.fetch_add(1, std::memory_order_relaxed);
                    if (i >= units.cycles.size())
                        return;
                    const campaign::CanonicalCycle &cycle =
                        units.cycles[i];
                    const auto test = litmus::testFromCycle(
                        cycle.name, cycle.edges, cycle.numLocations);
                    for (const auto &[m, e] : units.pairs) {
                        harness::Query q;
                        q.test = &*test;
                        q.model = m;
                        q.engine = harness::engineSelectOf(e);
                        q.options = run;
                        harness::decide(q, &cache, &store);
                    }
                }
            });
        }
        pool.wait();
        decisions = units.cycles.size() * units.pairs.size();
        store.flush();
        *wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    }
    std::remove(path);
    return decisions;
}

uint64_t
countClasses(campaign::EnumerateOptions options,
             campaign::CanonicalForm form, double *wall)
{
    options.canonical = form;
    const auto start = std::chrono::steady_clock::now();
    const campaign::EnumerateStats stats = campaign::enumerateCycles(
        options, [](const campaign::CanonicalCycle &) { return true; });
    *wall = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    return stats.emitted;
}

} // namespace

int
main()
{
    const char *store_path = "bench_campaign.store";
    const char *baseline_path = "bench_campaign_baseline.store";
    std::remove(store_path);
    std::remove(baseline_path);

    campaign::CampaignOptions options;
    options.enumerate.maxLen = 4;
    options.shards = 16;
    options.threads = 2;

    // ------ sections 1-2: per-query baseline, cold and resumed passes
    constexpr int Rounds = 3;
    double baseline_s = 1e300, cold_s = 1e300, resumed_s = 1e300;
    uint64_t baseline_decisions = 0;
    campaign::CampaignResult cold, resumed;
    for (int round = 0; round < Rounds; ++round) {
        double wall = 0.0;
        baseline_decisions = perQueryPass(options, baseline_path, &wall);
        baseline_s = std::min(baseline_s, wall);
        std::remove(store_path);
        {
            campaign::DecisionStore store(store_path);
            cold = pass(options, &store, &wall);
            cold_s = std::min(cold_s, wall);
        }
        {
            // Reopen: the resumed pass also pays the store's recovery
            // scan, exactly like a restarted campaign would.
            campaign::DecisionStore store(store_path);
            resumed = pass(options, &store, &wall);
            resumed_s = std::min(resumed_s, wall);
        }
        std::remove(store_path);
    }

    const double baseline_rate =
        baseline_s > 0 ? double(baseline_decisions) / baseline_s : 0.0;
    const double cold_rate =
        cold_s > 0 ? double(cold.decisions) / cold_s : 0.0;
    const double resumed_rate =
        resumed_s > 0 ? double(resumed.decisions) / resumed_s : 0.0;
    const double batch_speedup =
        baseline_rate > 0 ? cold_rate / baseline_rate : 0.0;
    const double hit_rate = resumed.decisions > 0
        ? double(resumed.storeHits) / double(resumed.decisions)
        : 0.0;
    const double speedup = resumed_s > 0 ? cold_s / resumed_s : 0.0;

    std::printf("campaign benchmark: %llu canonical tests (cycles up "
                "to length %u) x %zu models, %u shards\n\n",
                static_cast<unsigned long long>(cold.units),
                options.enumerate.maxLen, options.models.size(),
                options.shards);
    std::printf("best of %d passes each:\n", Rounds);
    std::printf("baseline pass: %8llu decisions in %7.3fs  (%9.0f "
                "dec/s, per-query loop on %u workers, per-record "
                "flush)\n",
                static_cast<unsigned long long>(baseline_decisions),
                baseline_s, baseline_rate, options.threads);
    std::printf("cold     pass: %8llu decisions in %7.3fs  (%9.0f "
                "dec/s, %llu store hits)\n",
                static_cast<unsigned long long>(cold.decisions), cold_s,
                cold_rate,
                static_cast<unsigned long long>(cold.storeHits));
    std::printf("resumed  pass: %8llu decisions in %7.3fs  (%9.0f "
                "dec/s, %llu store hits)\n",
                static_cast<unsigned long long>(resumed.decisions),
                resumed_s, resumed_rate,
                static_cast<unsigned long long>(resumed.storeHits));
    std::printf("\nbatched-pipeline speedup %.2fx, store hit rate "
                "%.2f%%, store-resumed speedup %.2fx\n",
                batch_speedup, hit_rate * 100.0, speedup);

    {
        obs::MetricRegistry reg;
        reg.counter("bench.campaign.max_cycle_len")
            .inc(options.enumerate.maxLen);
        reg.counter("bench.campaign.tests").inc(cold.units);
        reg.counter("bench.campaign.models").inc(options.models.size());
        reg.counter("bench.campaign.decisions").inc(cold.decisions);
        reg.gauge("bench.campaign.baseline_seconds").set(baseline_s);
        reg.gauge("bench.campaign.baseline_decisions_per_second")
            .set(baseline_rate);
        reg.gauge("bench.campaign.cold_seconds").set(cold_s);
        reg.gauge("bench.campaign.cold_decisions_per_second")
            .set(cold_rate);
        reg.gauge("bench.campaign.resumed_seconds").set(resumed_s);
        reg.gauge("bench.campaign.resumed_decisions_per_second")
            .set(resumed_rate);
        reg.gauge("bench.campaign.batch_speedup").set(batch_speedup);
        reg.gauge("bench.campaign.store_hit_rate").set(hit_rate);
        reg.gauge("bench.campaign.resumed_speedup").set(speedup);
        reg.gauge("bench.campaign.gate_batch_speedup_min").set(2.0);
        reg.gauge("bench.campaign.gate_hit_rate_min").set(0.99);
        reg.gauge("bench.campaign.gate_resumed_speedup_min").set(3.0);
        std::ofstream json("BENCH_campaign.json", std::ios::trunc);
        json << reg.snapshot().toJson();
    }

    // ------------------------------- section 3: symmetry quotient
    campaign::EnumerateOptions six = options.enumerate;
    six.maxLen = 6;
    double rot6_s = 0.0, full6_s = 0.0;
    const uint64_t rot6 =
        countClasses(six, campaign::CanonicalForm::Rotation, &rot6_s);
    const uint64_t full6 =
        countClasses(six, campaign::CanonicalForm::Full, &full6_s);
    const double shrink6 = full6 > 0 ? double(rot6) / double(full6) : 0.0;

    campaign::CampaignOptions seven;
    seven.enumerate.minLen = 7;
    seven.enumerate.maxLen = 7;
    seven.enumerate.fences = false;
    seven.enumerate.deps = false;
    seven.enumerate.canonical = campaign::CanonicalForm::Full;
    seven.shards = 16;
    seven.threads = 2;
    double rot7_s = 0.0, full7_s = 0.0, seven_s = 0.0;
    const uint64_t rot7 = countClasses(
        seven.enumerate, campaign::CanonicalForm::Rotation, &rot7_s);
    const uint64_t full7 = countClasses(
        seven.enumerate, campaign::CanonicalForm::Full, &full7_s);
    const campaign::CampaignResult r7 =
        pass(seven, nullptr, &seven_s);
    const double seven_rate =
        seven_s > 0 ? double(r7.decisions) / seven_s : 0.0;

    std::printf("\nsymmetry quotient, length <= 6: %llu rotation "
                "classes -> %llu full classes (%.2fx shrink, "
                "%.2fs/%.2fs to enumerate)\n",
                static_cast<unsigned long long>(rot6),
                static_cast<unsigned long long>(full6), shrink6,
                rot6_s, full6_s);
    std::printf("length-7 slice (no fences, no deps): %llu rotation "
                "-> %llu full classes; %llu tests, %llu decisions in "
                "%.2fs (%.0f dec/s)\n",
                static_cast<unsigned long long>(rot7),
                static_cast<unsigned long long>(full7),
                static_cast<unsigned long long>(r7.units),
                static_cast<unsigned long long>(r7.decisions), seven_s,
                seven_rate);

    {
        obs::MetricRegistry reg;
        reg.counter("bench.campaign_symmetry.len6_rotation_classes")
            .inc(rot6);
        reg.counter("bench.campaign_symmetry.len6_full_classes")
            .inc(full6);
        reg.gauge("bench.campaign_symmetry.len6_shrink").set(shrink6);
        reg.counter("bench.campaign_symmetry.len7_rotation_classes")
            .inc(rot7);
        reg.counter("bench.campaign_symmetry.len7_full_classes")
            .inc(full7);
        reg.counter("bench.campaign_symmetry.len7_tests").inc(r7.units);
        reg.counter("bench.campaign_symmetry.len7_decisions")
            .inc(r7.decisions);
        reg.gauge("bench.campaign_symmetry.len7_seconds").set(seven_s);
        reg.gauge("bench.campaign_symmetry.len7_decisions_per_second")
            .set(seven_rate);
        reg.gauge("bench.campaign_symmetry.gate_len6_shrink_min")
            .set(1.5);
        std::ofstream json("BENCH_campaign_symmetry.json",
                           std::ios::trunc);
        json << reg.snapshot().toJson();
    }

    bool ok = true;
    if (batch_speedup < 2.0) {
        std::printf("FAIL: batched cold throughput %.2fx the "
                    "per-query baseline, below 2x\n",
                    batch_speedup);
        ok = false;
    }
    if (hit_rate < 0.99) {
        std::printf("FAIL: store hit rate %.2f%% below 99%% -- "
                    "persisted keys no longer match decide()'s query "
                    "keys\n",
                    hit_rate * 100.0);
        ok = false;
    }
    if (speedup < 3.0) {
        std::printf("FAIL: store-resumed speedup %.2fx below 3x\n",
                    speedup);
        ok = false;
    }
    if (shrink6 < 1.5) {
        std::printf("FAIL: full canonicalization shrinks the "
                    "length-<=6 rotation universe only %.2fx, below "
                    "1.5x\n",
                    shrink6);
        ok = false;
    }
    if (!ok)
        return 1;
    std::printf("PASS\n");
    return 0;
}
