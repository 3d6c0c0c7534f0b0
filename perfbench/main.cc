/**
 * @file
 * gam_perfbench: the repository benchmark's measuring binary.
 *
 *   gam_perfbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> --out <dir>
 *   gam_perfbench --stream-hash --seed <n>
 *
 * Workloads: campaign, decide_single (see README.md).
 * The last stdout line is one JSON object with the measured metrics,
 * the run's stamp and the observations perfbench/run.py checks
 * against perfbench/reference.json.
 * --stream-hash prints the digest of a seed's decide_single query
 * stream (the benchmark's own determinism test).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "base/logging.hh"
#include "obs/trace.hh"
#include "perfbench.hh"

namespace perfbench
{

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * double(values.size()));
    const size_t index = rank < 1 ? 0 : size_t(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

void
BestOf::add(const std::vector<double> &roundSeconds)
{
    if (_best.empty())
        _best = roundSeconds;
    if (roundSeconds.size() > _best.size())
        throw std::logic_error("BestOf: a round has more items than the "
                               "first");
    for (size_t i = 0; i < roundSeconds.size(); ++i)
        _best[i] = std::min(_best[i], roundSeconds[i]);
    if (roundSeconds.size() == _best.size())
        ++_rounds;
}

double
BestOf::total() const
{
    double sum = 0.0;
    for (double s : _best)
        sum += s;
    return sum;
}

void
BestOf::report(Report &report, double ops) const
{
    std::vector<double> us;
    for (double s : _best)
        us.push_back(s * 1e6);
    report.set("ops_per_s", ratio(ops, total()), _rounds);
    report.set("call_p50_us", percentile(us, 0.50), us.size());
    report.set("call_p99_us", percentile(us, 0.99), us.size());
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double
cpuSeconds()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

LayerClock::Scope::Scope(LayerClock &clock, const char *layer)
    : clock(clock), layer(layer), startNs(gam::monotonicNanos()), spanId(0)
{
    auto &collector = gam::obs::TraceCollector::instance();
    if (collector.enabled())
        spanId = collector.nextSpanId();
}

LayerClock::Scope::~Scope()
{
    // The program's spans share this clock, so both nest in one trace.
    const uint64_t ns = gam::monotonicNanos() - startNs;
    Layer &entry = clock._layers[layer];
    entry.ns += ns;
    ++entry.calls;
    if (spanId)
        gam::obs::TraceCollector::instance().record(layer, startNs, ns,
                                                     spanId);
}

double
LayerClock::pct(const std::string &layer, double wallSeconds) const
{
    const auto it = _layers.find(layer);
    if (it == _layers.end())
        return 0.0;
    return 100.0 * ratio(double(it->second.ns) * 1e-9, wallSeconds);
}

namespace
{

/**
 * Registry metrics whose values do not mean what their names say
 * (ROADMAP baseline): decide.wall_us is enqueue-relative in batched
 * mode, campaign.shard.wall_us records the whole run's wall per shard
 * under work stealing, and the batch reuse counters are always 0.
 */
const char *const UntrustedMetrics[] = {
    "decide.wall_us", "campaign.shard.wall_us",
    "decide.batch.plan_reuse", "decide.batch.arena_reuse"};

} // namespace

void
RegistryDelta::begin()
{
    before = gam::obs::metrics().snapshot();
}

void
RegistryDelta::end()
{
    const gam::obs::MetricSnapshot delta =
        gam::obs::metrics().snapshot().delta(before);
    for (const auto &[name, value] : delta.counters)
        totals[name] += value;
}

uint64_t
RegistryDelta::counter(const std::string &name) const
{
    for (const char *bad : UntrustedMetrics)
        if (name == bad)
            throw std::logic_error("untrusted registry metric: " + name);
    const auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second;
}

TracingOn::TracingOn()
{
    gam::obs::TraceCollector::instance().enable();
}

TracingOn::~TracingOn()
{
    gam::obs::TraceCollector::instance().disable();
}

void
setRegistryMetrics(const RegistryDelta &registry, Report &report)
{
    const uint64_t hits = registry.counter("decide.cache.hit");
    const uint64_t lookups = hits + registry.counter("decide.cache.miss");
    report.set("harness.cache.hit_ratio", ratio(double(hits), double(lookups)),
               lookups);
    const uint64_t batched = registry.counter("decide.batch.queries");
    report.set("harness.batch.fused_ratio",
               ratio(double(registry.counter("decide.batch.fused_queries")),
                     double(batched)),
               batched);
}

void
setAxiomaticStats(const gam::axiomatic::CheckerStats &stats, Report &report)
{
    report.set("axiomatic.rf_candidates", double(stats.rfCandidates),
               stats.rfCandidates);
    report.set("axiomatic.co_candidates", double(stats.coCandidates),
               stats.coCandidates);
    report.set("axiomatic.accept_ratio",
               ratio(double(stats.accepted), double(stats.coCandidates)),
               stats.coCandidates);
}

const std::vector<std::string> &
Report::perLayerNames()
{
    static const std::vector<std::string> names = {
        "analysis.prescreen.busy_pct",
        "analysis.prescreen.resolved_ratio",
        "axiomatic.enumerate.busy_pct",
        "axiomatic.rf_candidates",
        "axiomatic.co_candidates",
        "axiomatic.accept_ratio",
        "model.ppo.shapes",
        "harness.cache.hit_ratio",
        "harness.cache.lookup_pct",
        "harness.batch.fused_ratio",
        "cat.compile.busy_pct",
        "cat.enumerate.busy_pct",
        "operational.explore.busy_pct",
        "operational.states_visited",
        "campaign.store.open_pct",
        "campaign.store.load_pct",
        "campaign.store.hit_ratio",
        "campaign.store.append_pct",
        "campaign.enumerate.busy_pct",
        "campaign.enumerate.classes",
        "campaign.enumerate.useful_ratio",
        "litmus.lower.busy_pct",
        "litmus.fingerprint.busy_pct",
        "campaign.driver.cpu_util",
        "workload.trace_gen.busy_pct",
        "sim.core.busy_pct",
        "sim.cycles_per_host_us",
        "sim.cycles",
        "mem.l1d_miss_ratio",
        "obs.trace_overhead_ratio",
    };
    return names;
}

void
Report::zeroPerLayer()
{
    for (const std::string &name : perLayerNames())
        set(name, 0.0, 0);
}

void
Report::set(const std::string &name, double value, uint64_t n)
{
    if (name.find('.') != std::string::npos
        && std::find(perLayerNames().begin(), perLayerNames().end(), name)
               == perLayerNames().end())
        throw std::logic_error("unknown per-layer metric: " + name);
    metrics[name] = value;
    samples[name] = n;
}

void
Report::setLayerShares(const LayerClock &clock, double wallSeconds)
{
    // Layer clock key -> reported busy-share metric.
    static const std::pair<const char *, const char *> shares[] = {
        {"analysis.prescreen", "analysis.prescreen.busy_pct"},
        {"axiomatic.enumerate", "axiomatic.enumerate.busy_pct"},
        {"harness.cache.lookup", "harness.cache.lookup_pct"},
        {"cat.compile", "cat.compile.busy_pct"},
        {"cat.enumerate", "cat.enumerate.busy_pct"},
        {"operational.explore", "operational.explore.busy_pct"},
        {"campaign.store.open", "campaign.store.open_pct"},
        {"campaign.store.load", "campaign.store.load_pct"},
        {"campaign.store.append", "campaign.store.append_pct"},
        {"campaign.enumerate", "campaign.enumerate.busy_pct"},
        {"litmus.lower", "litmus.lower.busy_pct"},
        {"litmus.fingerprint", "litmus.fingerprint.busy_pct"},
        {"workload.trace_gen", "workload.trace_gen.busy_pct"},
        {"sim.core", "sim.core.busy_pct"},
    };
    for (const auto &[layer, metric] : shares) {
        const auto it = clock.layers().find(layer);
        if (it != clock.layers().end())
            set(metric, clock.pct(layer, wallSeconds), it->second.calls);
    }
    layerTable.insert(layerTable.end(), clock.layers().begin(),
                      clock.layers().end());
    layerPassSeconds += wallSeconds;
}

Setup::Setup(std::function<void()> fn) : _fn(std::move(fn))
{
    for (unsigned i = 0; i < SetupRuns; ++i)
        repeat();
}

void
Setup::repeat()
{
    const Clock::time_point start = Clock::now();
    _fn();
    _seconds.push_back(secondsSince(start));
}

void
Setup::report(Report &report) const
{
    report.set("setup_s", median(_seconds), _seconds.size());
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace
{

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

std::string
Report::toJson(const Options &options) const
{
    std::ostringstream out;
    out << "{\"workload\": " << jsonString(options.workload)
        << ", \"stamp\": {\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"workers\": " << options.workers
        << ", \"seed\": " << options.seed
        << ", \"seconds\": " << number(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0) << "}"
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, value] : metrics) {
        out << sep << jsonString(name) << ": {\"value\": " << number(value)
            << ", \"samples\": " << samples.at(name) << "}";
        sep = ", ";
    }
    out << "}, \"checks\": {";
    sep = "";
    for (const auto &[name, fragment] : checks) {
        out << sep << jsonString(name) << ": " << fragment;
        sep = ", ";
    }
    out << "}, \"layers\": {\"pass_s\": " << number(layerPassSeconds)
        << ", \"trace_dropped_events\": " << traceDroppedEvents
        << ", \"rows\": [";
    sep = "";
    for (const auto &[layer, entry] : layerTable) {
        out << sep << "[" << jsonString(layer) << ", "
            << number(double(entry.ns) * 1e-6) << ", " << entry.calls
            << "]";
        sep = ", ";
    }
    out << "]}, \"notes\": [";
    sep = "";
    for (const std::string &note : notes) {
        out << sep << jsonString(note);
        sep = ", ";
    }
    out << "]}";
    return out.str();
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "gam_perfbench: %s\n"
                 "usage: gam_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <dir>\n"
                 "       gam_perfbench --stream-hash --seed <n>\n",
                 why);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string(flag) + " needs a non-negative integer")
                  .c_str());
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool streamHash = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--stream-hash") {
            streamHash = true;
            continue;
        }
        if (i + 1 >= argc)
            usage((arg + " needs a value").c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = parseUnsigned("--seed", value);
        else if (arg == "--seconds")
            options.seconds = double(parseUnsigned("--seconds", value));
        else if (arg == "--trace")
            options.trace = parseUnsigned("--trace", value) != 0;
        else if (arg == "--out")
            options.outDir = value;
        else
            usage(("unknown flag " + arg).c_str());
    }

    if (streamHash) {
        std::printf("%016llx\n",
                    (unsigned long long)decideStreamHash(options.seed));
        return 0;
    }
    if (options.outDir.empty())
        usage("--out is required");
    if (options.seconds < 1)
        usage("--seconds must be at least 1");

    Report report;
    report.zeroPerLayer();
    if (options.workload == "campaign")
        runCampaignWorkload(options, report);
    else if (options.workload == "decide_single")
        runDecideSingle(options, report);
    else
        usage(("unknown workload '" + options.workload + "'").c_str());

    report.set("peak_rss_mb", peakRssMb(), 1);
    if (options.trace) {
        auto &collector = gam::obs::TraceCollector::instance();
        report.traceDroppedEvents = collector.droppedEvents();
        const std::string path = options.outDir + "/trace.json";
        if (!collector.writeChromeJson(path)) {
            std::fprintf(stderr, "gam_perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
    }
    std::printf("%s\n", report.toJson(options).c_str());
    return 0;
}
