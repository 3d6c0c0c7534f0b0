/**
 * @file
 * Shared plumbing of the repository benchmark: options, clocks,
 * percentiles, the per-layer clock the traced run records its spans
 * into, registry deltas, and the report every workload fills in.
 *
 * The binary prints one JSON object (Report::toJson) as the last line
 * of its standard output; perfbench/run.py turns it into the result
 * line the benchmark contract asks for.
 */

#ifndef GAM_PERFBENCH_PERFBENCH_HH
#define GAM_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "axiomatic/enumerate.hh"
#include "obs/registry.hh"

namespace perfbench
{

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed region, in seconds. */
    double seconds = 10.0;
    /** 0: end-to-end metrics; 1: the traced per-layer run. */
    bool trace = false;
    /** Scratch and artifact directory (stores, trace.json). */
    std::string outDir;
    /**
     * Campaign worker threads.  One: on a shared host a second worker
     * doubles the exposure to neighbours (a resumed pass's best time
     * varied 16% across ten runs with 2 workers, 6% with 1), and a
     * single worker measures the per-core engine throughput the
     * ROADMAP tracks.
     */
    static constexpr unsigned workers = 1;
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline Clock::duration
secondsDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** Nearest-rank percentile of @p values (0 < q <= 1); 0 when empty. */
double percentile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

struct Report;

/**
 * Best-of-rounds timing.  Every workload repeats a fixed list of
 * deterministic work items (a campaign pass, one decide() query of the
 * stream, one runOne() call) in rounds; an item's latency is its
 * fastest round.  The host is shared and slows a core by up to 1.6x
 * for seconds at a time, and interference only ever adds time, so the
 * per-item minimum is the steady estimate of what the program costs.
 */
class BestOf
{
  public:
    /**
     * Fold one round's per-item seconds in.  The first round sizes it;
     * a later one may be a prefix (the round the deadline cut short).
     */
    void add(const std::vector<double> &roundSeconds);

    /** Per-item fastest seconds. */
    const std::vector<double> &best() const { return _best; }
    /** Whole rounds folded in. */
    unsigned rounds() const { return _rounds; }

    /** Sum of the per-item fastest seconds. */
    double total() const;

    /**
     * ops_per_s = @p ops / total(); call_p50_us and call_p99_us are
     * nearest-rank percentiles of the per-item fastest latencies.
     */
    void report(Report &report, double ops) const;

  private:
    std::vector<double> _best;
    unsigned _rounds = 0;
};

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** User + system CPU seconds this process has used so far. */
double cpuSeconds();

/**
 * Busy time per layer, recorded around the benchmark's own calls into
 * each layer's public functions.  Every Scope also opens an
 * obs::TraceSpan named after the layer, so the calls show up in the
 * exported Chrome trace next to the program's own spans.
 */
class LayerClock
{
  public:
    struct Layer
    {
        uint64_t ns = 0;
        uint64_t calls = 0;
    };

    class Scope
    {
      public:
        Scope(LayerClock &clock, const char *layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        LayerClock &clock;
        const char *layer;
        uint64_t startNs;
        uint64_t spanId;
    };

    /** Time @p fn as one call into @p layer; returns its result. */
    template <typename Fn>
    auto
    time(const char *layer, Fn &&fn)
    {
        Scope scope(*this, layer);
        return fn();
    }

    const std::map<std::string, Layer> &layers() const { return _layers; }

    /** Busy share of @p layer in @p wallSeconds, percent. */
    double pct(const std::string &layer, double wallSeconds) const;

  private:
    std::map<std::string, Layer> _layers;
};

/**
 * Registry traffic of the traced passes: the counters of
 * MetricSnapshot::delta of the process-wide registry, summed over
 * every begin()/end() window.  Refuses the registry metrics known not
 * to mean what their names say (see README.md), so no reported number
 * can be derived from them.
 */
class RegistryDelta
{
  public:
    void begin();
    void end();
    uint64_t counter(const std::string &name) const;

  private:
    gam::obs::MetricSnapshot before;
    std::map<std::string, uint64_t> totals;
};

/** Tracing on (the program's spans and the LayerClock's) for the
 *  lifetime of one traced pass. */
struct TracingOn
{
    TracingOn();
    ~TracingOn();
    TracingOn(const TracingOn &) = delete;
    TracingOn &operator=(const TracingOn &) = delete;
};

/** numerator / denominator, 0 when the denominator is 0. */
inline double
ratio(double numerator, double denominator)
{
    return denominator > 0 ? numerator / denominator : 0.0;
}

/**
 * What one workload measured.  Metric values are raw; run.py attaches
 * units from BENCHMARK.json.  `checks` holds JSON fragments of the
 * observations run.py compares against perfbench/reference.json.
 */
struct Report
{
    /** Every per-layer metric name, in BENCHMARK.json order. */
    static const std::vector<std::string> &perLayerNames();

    /** Zero every per-layer metric (a layer the workload never calls
     *  reads 0). */
    void zeroPerLayer();

    /** Record a metric; per-layer names must be known ones. */
    void set(const std::string &name, double value, uint64_t samples);

    /**
     * Fold a traced layer pass into the busy-share metrics of the
     * layers it called (the others keep their value) and append it to
     * the layer table.
     */
    void setLayerShares(const LayerClock &clock, double wallSeconds);

    std::map<std::string, double> metrics;
    std::map<std::string, uint64_t> samples;
    uint64_t attempted = 0;
    /** Operations that were incomplete or disagreed with a reference
     *  the binary itself can check. */
    uint64_t failed = 0;
    std::vector<std::string> notes;
    std::map<std::string, std::string> checks;
    /** Per-layer busy table of the traced layer passes (ms, calls). */
    std::vector<std::pair<std::string, LayerClock::Layer>> layerTable;
    double layerPassSeconds = 0.0;
    uint64_t traceDroppedEvents = 0;

    std::string toJson(const Options &options) const;
};

/**
 * The per-layer counts that come from the registry delta of the traced
 * program passes: the decision cache's hit ratio and the batch
 * pipeline's fused share.
 */
void setRegistryMetrics(const RegistryDelta &registry, Report &report);

/**
 * The axiomatic engine's work in the traced layer pass: rf and co
 * candidates and the accepted share of co candidates, as solo
 * (one-model) runs count them.  Taken from the engine's own
 * CheckerStats rather than the registry's enum.* counters, which the
 * cat engine also feeds and the fused walk counts once per walk but
 * accepts once per model.
 */
void setAxiomaticStats(const gam::axiomatic::CheckerStats &stats,
                       Report &report);

/**
 * setup_s: a workload's set-up, repeated from scratch and timed, and
 * reported as the median of the repetitions.  A workload repeats it
 * SetupRuns times before its timed region and once more after each
 * round, so the median samples the host over the whole run, as the
 * timed metrics do, and not just over its first second.  The state of
 * the last repetition is the one the workload keeps.
 */
class Setup
{
  public:
    /** Run @p fn SetupRuns times. */
    explicit Setup(std::function<void()> fn);

    /** Run and time one more repetition. */
    void repeat();

    void report(Report &report) const;

  private:
    std::function<void()> _fn;
    std::vector<double> _seconds;
};

/** Set-up repetitions before the timed region. */
constexpr unsigned SetupRuns = 5;

/** Workload entry points. */
void runCampaignWorkload(const Options &options, Report &report);
void runDecideSingle(const Options &options, Report &report);

/**
 * The simulator's layer pass (workload.trace_gen, sim.core, sim.* and
 * mem.* metrics, pinned SimStats), run in decide_single's traced run.
 */
void simLayerPass(Report &report);

/** Digest of the decide_single query stream of @p seed (its test
 *  fingerprints, models and engines, in order). */
uint64_t decideStreamHash(uint64_t seed);

/** Minimal JSON string escaping. */
std::string jsonString(const std::string &text);

} // namespace perfbench

#endif // GAM_PERFBENCH_PERFBENCH_HH
