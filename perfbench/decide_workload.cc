/**
 * @file
 * decide_single: a closed loop in which one caller issues decide() one
 * query at a time, with a fresh DecisionCache per run.
 *
 * The seeded query stream mixes litmus::generateTest(seed, i) tests
 * with the builtin suites that carry the paper's expected verdicts;
 * every test is asked under SC/TSO/GAM0/GAM with the axiomatic, cat
 * and operational engines, and about a third of the queries repeat an
 * earlier one (the fuzz-shrinking and fence-synthesis pattern).  It is
 * the only workload on the single-query path, the in-memory cache, the
 * cat engine and the operational explorer.
 */

#include <algorithm>
#include <map>
#include <sstream>

#include "analysis/prescreen.hh"
#include "axiomatic/checker.hh"
#include "base/hashing.hh"
#include "base/rng.hh"
#include "cat/engine.hh"
#include "harness/decision.hh"
#include "litmus/generator.hh"
#include "litmus/suite.hh"
#include "model/engine.hh"
#include "perfbench.hh"

namespace perfbench
{
namespace
{

using namespace gam;
using model::ModelKind;

constexpr ModelKind Models[] = {ModelKind::SC, ModelKind::TSO,
                                ModelKind::GAM0, ModelKind::GAM};
constexpr harness::EngineSelect Engines[] = {
    harness::EngineSelect::Axiomatic, harness::EngineSelect::Cat,
    harness::EngineSelect::Operational};
/** Every SuiteStride-th test of the stream is a builtin suite test,
 *  until each suite test has appeared once. */
constexpr size_t SuiteStride = 8;

/**
 * Generator knobs of the stream's @p index-th generated test.  The
 * stream is stratified over cycle length (3..6 edges) and thread budget
 * (2..4): every seed gets the same mix of test shapes, so the cost of a
 * stream -- dominated by its few largest tests -- depends on the seed's
 * draws within each shape, not on how many large shapes it drew.
 */
litmus::GeneratorOptions
stratum(size_t index)
{
    litmus::GeneratorOptions o;
    o.minEdges = o.maxEdges = 3 + int(index % 4);
    o.maxThreads = 2 + int(index / 4 % 3);
    return o;
}

/**
 * Queries in the stream.  Every round decides all of them, so a
 * round (about 4 s on a 4-core x86 host) is the unit of repetition.
 */
constexpr size_t StreamQueries = 12288;

struct StreamQuery
{
    size_t test = 0;
    ModelKind model = ModelKind::SC;
    harness::EngineSelect engine = harness::EngineSelect::Axiomatic;
};

struct DecideStream
{
    /** Stable addresses: queries point into this vector. */
    std::vector<litmus::LitmusTest> tests;
    std::vector<StreamQuery> queries;
};

/** The builtin suite tests that carry paper expectations. */
std::vector<litmus::LitmusTest>
expectationSuite()
{
    std::vector<litmus::LitmusTest> suite;
    for (const litmus::LitmusTest &t : litmus::allTests()) {
        bool claims = false;
        for (ModelKind m : Models)
            claims = claims || t.expected.count(m);
        if (claims && !t.check())
            suite.push_back(t);
    }
    return suite;
}

/**
 * The StreamQueries queries of @p seed's stream.  Fresh queries walk
 * the (model, engine) matrix of one test at a time in a seeded order;
 * each slot repeats a uniformly drawn earlier query with probability
 * 1/3.
 */
DecideStream
buildStream(uint64_t seed)
{
    DecideStream s;
    const std::vector<litmus::LitmusTest> suite = expectationSuite();
    size_t suiteNext = 0, generated = 0;
    Rng rng(seed);
    std::vector<StreamQuery> pending;
    s.queries.reserve(StreamQueries);
    while (s.queries.size() < StreamQueries) {
        if (!s.queries.empty() && rng.chance(1, 3)) {
            s.queries.push_back(s.queries[rng.range(s.queries.size())]);
            continue;
        }
        if (pending.empty()) {
            if (suiteNext < suite.size()
                && s.tests.size() % SuiteStride == SuiteStride - 1)
                s.tests.push_back(suite[suiteNext++]);
            else
            {
                s.tests.push_back(
                    litmus::generateTest(seed, generated, stratum(generated)));
                ++generated;
            }
            for (ModelKind m : Models)
                for (harness::EngineSelect e : Engines)
                    pending.push_back({s.tests.size() - 1, m, e});
            for (size_t i = pending.size(); i > 1; --i)
                std::swap(pending[i - 1], pending[rng.range(i)]);
        }
        s.queries.push_back(pending.back());
        pending.pop_back();
    }
    return s;
}

harness::Query
toQuery(const DecideStream &s, const StreamQuery &sq)
{
    harness::Query q;
    q.test = &s.tests[sq.test];
    q.model = sq.model;
    q.engine = sq.engine;
    return q;
}


/** What the reference checks need of one Decision. */
struct Verdict
{
    bool allowed = false;
    bool complete = true;
    bool prescreened = false;
    bool cacheHit = false;

    bool operator==(const Verdict &) const = default;
};

struct Round
{
    std::vector<Verdict> verdicts;
    /** Seconds of each decide() call, in stream order. */
    std::vector<double> seconds;
    double wall = 0.0;
    double cpuSeconds = 0.0;
};

/**
 * Decide the stream in order, one call at a time, with a fresh cache,
 * until it ends or @p deadline passes (then the round is a prefix).
 */
Round
runRound(const DecideStream &s,
         Clock::time_point deadline = Clock::time_point::max())
{
    harness::DecisionCache cache;
    Round r;
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    for (const StreamQuery &sq : s.queries) {
        const harness::Query q = toQuery(s, sq);
        const Clock::time_point t0 = Clock::now();
        if (t0 >= deadline)
            break;
        const harness::Decision d = harness::decide(q, &cache, nullptr);
        r.seconds.push_back(secondsSince(t0));
        r.verdicts.push_back({d.allowed, d.complete,
                              d.prescreened != harness::PrescreenKind::None,
                              d.cacheHit});
    }
    r.wall = secondsSince(start);
    r.cpuSeconds = cpuSeconds() - cpu0;
    return r;
}

/**
 * Reference checks on the rounds' decisions: each must be complete; a
 * suite test's verdict must match the paper's expectation; every
 * engine must agree with the axiomatic verdict of the same (test,
 * model); and every round (the last may be a prefix) must repeat the
 * first one's verdicts.
 */
void
checkDecisions(const DecideStream &s, const std::vector<Round> &rounds,
               Report &report)
{
    const Round &r = rounds.front();
    uint64_t incomplete = 0, expectedChecked = 0, expectedWrong = 0,
             engineWrong = 0, prescreened = 0, cacheHits = 0;
    std::map<std::pair<size_t, ModelKind>, bool> reference;
    for (size_t i = 0; i < r.verdicts.size(); ++i) {
        const StreamQuery &sq = s.queries[i];
        const Verdict &d = r.verdicts[i];
        if (sq.engine == harness::EngineSelect::Axiomatic && d.complete)
            reference[{sq.test, sq.model}] = d.allowed;
    }
    for (size_t i = 0; i < r.verdicts.size(); ++i) {
        const StreamQuery &sq = s.queries[i];
        const Verdict &d = r.verdicts[i];
        const litmus::LitmusTest &test = s.tests[sq.test];
        prescreened += d.prescreened;
        cacheHits += d.cacheHit;
        bool bad = !d.complete;
        incomplete += !d.complete;
        if (const auto it = test.expected.find(sq.model);
            it != test.expected.end() && d.complete) {
            ++expectedChecked;
            if (it->second != d.allowed) {
                ++expectedWrong;
                bad = true;
            }
        }
        const auto ref = reference.find({sq.test, sq.model});
        if (d.complete && ref != reference.end()
            && ref->second != d.allowed) {
            ++engineWrong;
            bad = true;
        }
        report.failed += bad;
    }
    uint64_t unrepeated = 0;
    for (const Round &other : rounds) {
        for (size_t i = 0; i < other.verdicts.size(); ++i)
            unrepeated += other.verdicts[i] != r.verdicts[i];
        report.attempted += other.verdicts.size();
    }
    report.failed += unrepeated;
    std::ostringstream out;
    out << "{\"decisions\": " << r.verdicts.size()
        << ", \"incomplete\": " << incomplete
        << ", \"expected_checked\": " << expectedChecked
        << ", \"expected_mismatch\": " << expectedWrong
        << ", \"engine_mismatch\": " << engineWrong
        << ", \"rounds\": " << rounds.size()
        << ", \"unrepeated\": " << unrepeated
        << ", \"prescreened\": " << prescreened
        << ", \"cache_hits\": " << cacheHits << "}";
    report.checks["decide"] = out.str();
}

/**
 * The traced layer pass: the stream re-driven from the benchmark, one
 * timed call into each layer's public function per step, in the order
 * decide()'s single-query path takes them -- query key, cache lookup,
 * prescreen, then the engine (Checker::enumerate; CatEngine plan +
 * enumerate; the operational explorer through decide()), then cache
 * insert.  Value-cover verdicts are not cached, as in decide().
 */
void
layerPass(const DecideStream &s, Report &report)
{
    LayerClock clock;
    harness::DecisionCache cache;
    uint64_t screened = 0, resolved = 0, states = 0;
    axiomatic::CheckerStats engineStats;
    const Clock::time_point start = Clock::now();
    for (const StreamQuery &sq : s.queries) {
        const harness::Query q = toQuery(s, sq);
        const litmus::LitmusTest &test = *q.test;
        const model::Engine engine = harness::resolveEngine(q);
        const uint64_t key = clock.time("litmus.fingerprint", [&] {
            return harness::queryKey(q, engine);
        });
        if (clock.time("harness.cache.lookup",
                       [&] { return cache.lookup(key); }))
            continue;
        const analysis::PrescreenResult pre = clock.time(
            "analysis.prescreen",
            [&] { return analysis::prescreen(test, q.model); });
        ++screened;
        if (pre.verdict != analysis::PrescreenVerdict::Unknown)
            ++resolved;
        if (pre.verdict == analysis::PrescreenVerdict::Forbidden)
            continue;
        const ModelKind target =
            pre.verdict == analysis::PrescreenVerdict::ScEquivalent
            ? ModelKind::SC : q.model;
        const axiomatic::Options seeded =
            axiomatic::withConditionSeeds(test, q.options.axiomatic);
        harness::Decision d;
        d.engine = engine;
        if (engine == model::Engine::Axiomatic) {
            axiomatic::Checker checker(test, target, seeded);
            d.outcomes = clock.time("axiomatic.enumerate",
                                    [&] { return checker.enumerate(); });
            engineStats.merge(checker.stats());
        } else if (engine == model::Engine::Cat) {
            cat::CatEngine cat(test, cat::builtinCatModel(target), seeded);
            clock.time("cat.compile", [&] { return &cat.plan(); });
            d.outcomes =
                clock.time("cat.enumerate", [&] { return cat.enumerate(); });
        } else {
            harness::Query op = q;
            op.model = target;
            op.options.prescreen = false;
            d = clock.time("operational.explore", [&] {
                return harness::decide(op, nullptr, nullptr);
            });
            states += d.statesVisited;
        }
        for (const litmus::Outcome &o : d.outcomes)
            d.allowed = d.allowed || test.conditionMatches(o);
        clock.time("harness.cache.insert", [&] { cache.insert(key, d); });
    }
    report.setLayerShares(clock, secondsSince(start));
    report.set("analysis.prescreen.resolved_ratio",
               ratio(resolved, screened), screened);
    report.set("operational.states_visited", double(states), states);
    setAxiomaticStats(engineStats, report);
}

} // namespace

uint64_t
decideStreamHash(uint64_t seed)
{
    const DecideStream s = buildStream(seed);
    StateHasher h;
    for (const StreamQuery &q : s.queries) {
        h.add(litmus::fingerprint(s.tests[q.test]));
        h.add(uint64_t(q.model));
        h.add(uint64_t(q.engine));
    }
    return h.digest();
}

void
runDecideSingle(const Options &options, Report &report)
{
    DecideStream stream;
    Setup setup([&] { stream = buildStream(options.seed); });

    std::vector<Round> rounds;
    BestOf best;
    if (!options.trace) {
        // At least two whole rounds; after those, the deadline may cut
        // the last one short.
        const Clock::time_point deadline =
            Clock::now() + secondsDuration(options.seconds);
        while (rounds.size() < 2 || Clock::now() < deadline) {
            rounds.push_back(runRound(
                stream, rounds.size() < 2 ? Clock::time_point::max()
                                          : deadline));
            best.add(rounds.back().seconds);
            setup.repeat();
        }
        setup.report(report);
        best.report(report, double(StreamQueries));
        checkDecisions(stream, rounds, report);
        return;
    }

    // Untraced and traced rounds, alternating.
    RegistryDelta registry;
    BestOf traced;
    double cpu = 0.0, wall = 0.0;
    for (int pair = 0; pair < 2; ++pair) {
        rounds.push_back(runRound(stream));
        best.add(rounds.back().seconds);
        cpu += rounds.back().cpuSeconds;
        wall += rounds.back().wall;
        registry.begin();
        {
            TracingOn on;
            rounds.push_back(runRound(stream));
        }
        registry.end();
        traced.add(rounds.back().seconds);
    }
    checkDecisions(stream, rounds, report);
    report.set("obs.trace_overhead_ratio", ratio(best.total(), traced.total()),
               traced.rounds());
    report.set("campaign.driver.cpu_util", ratio(cpu, wall), best.rounds());
    setRegistryMetrics(registry, report);

    setup.report(report);
    TracingOn on;
    layerPass(stream, report);
    simLayerPass(report);
}

} // namespace perfbench
