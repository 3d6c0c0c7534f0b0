/**
 * The simulator's layer pass: harness::runOne, split into its layer
 * calls, on a fixed subset of workload::workloadSuite() under GAM and
 * ARM -- the paper's performance claim, and the simulator's host
 * speed.  It has no workload of its own (its wall-clock speed swung
 * with the shared host more than any other workload's); it rides in
 * decide_single's traced run.
 *
 * The subset holds late_addr (the one workload where GAM and ARM
 * cycles differ), a miss-bound walk (list_sum) and a compute-bound
 * kernel (matmul).  The simulator is deterministic and takes no seed,
 * so every SimStats field is checked against its pinned value
 * (perfbench/reference.json) -- a regression check, not a validation
 * against hardware.
 */

#include <sstream>

#include "harness/experiments.hh"
#include "sim/core.hh"
#include "sim/trace_gen.hh"
#include "workload/workloads.hh"
#include "perfbench.hh"

namespace perfbench
{
namespace
{

using namespace gam;

const char *const Subset[] = {"late_addr", "list_sum", "matmul"};
constexpr model::ModelKind SimModels[] = {model::ModelKind::GAM,
                                          model::ModelKind::ARM};

struct Call
{
    const workload::WorkloadSpec *spec;
    model::ModelKind model;
};

std::vector<Call>
subsetCalls()
{
    std::vector<Call> calls;
    for (const char *name : Subset)
        for (model::ModelKind m : SimModels)
            calls.push_back({&workload::workloadByName(name), m});
    return calls;
}

std::string
statsJson(const Call &call, const sim::SimStats &s)
{
    std::ostringstream out;
    out << "{\"workload\": " << jsonString(call.spec->name)
        << ", \"model\": " << jsonString(model::modelName(call.model))
        << ", \"cycles\": " << s.cycles
        << ", \"committedUops\": " << s.committedUops
        << ", \"fetchedUops\": " << s.fetchedUops
        << ", \"branchMispredicts\": " << s.branchMispredicts
        << ", \"condBranches\": " << s.condBranches
        << ", \"memOrderSquashes\": " << s.memOrderSquashes
        << ", \"saLdLdKills\": " << s.saLdLdKills
        << ", \"saLdLdStalls\": " << s.saLdLdStalls
        << ", \"llForwards\": " << s.llForwards
        << ", \"llForwardsSavedMiss\": " << s.llForwardsSavedMiss
        << ", \"storeForwards\": " << s.storeForwards
        << ", \"loadsExecuted\": " << s.loadsExecuted
        << ", \"storesCommitted\": " << s.storesCommitted
        << ", \"l1dLoadAccesses\": " << s.l1dLoadAccesses
        << ", \"l1dLoadMisses\": " << s.l1dLoadMisses
        << ", \"l2Misses\": " << s.l2Misses
        << ", \"l3Misses\": " << s.l3Misses << "}";
    return out.str();
}

} // namespace

void
simLayerPass(Report &report)
{
    const std::vector<Call> calls = subsetCalls();
    const harness::CampaignConfig config;
    LayerClock clock;
    uint64_t cycles = 0, accesses = 0, misses = 0;
    std::string list = "[";
    const Clock::time_point start = Clock::now();
    for (const Call &call : calls) {
        const sim::DynTrace trace = clock.time("workload.trace_gen", [&] {
            workload::BuiltWorkload built = call.spec->build();
            return sim::generateTrace(built.program, std::move(built.mem),
                                      call.spec->maxUops);
        });
        if (trace.uops.empty() || !trace.programCompleted)
            report.notes.push_back(call.spec->name
                                   + ": trace did not complete");
        sim::Core core(trace, call.model, config.core, config.mem);
        const sim::SimStats s = clock.time(
            "sim.core", [&] { return core.run(config.warmupUops); });
        cycles += s.cycles;
        accesses += s.l1dLoadAccesses;
        misses += s.l1dLoadMisses;
        list += (list.size() > 1 ? ", " : "") + statsJson(call, s);
        ++report.attempted;
    }
    report.setLayerShares(clock, secondsSince(start));
    const double coreUs =
        double(clock.layers().at("sim.core").ns) * 1e-3;
    report.set("sim.cycles", double(cycles), calls.size());
    report.set("sim.cycles_per_host_us", ratio(double(cycles), coreUs),
               calls.size());
    report.set("mem.l1d_miss_ratio", ratio(double(misses), double(accesses)),
               accesses);
    report.checks["sim"] = list + "]";
}

} // namespace perfbench
