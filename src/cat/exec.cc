#include "cat/exec.hh"

#include <array>
#include <map>
#include <span>

#include "base/logging.hh"
#include "isa/instruction.hh"

namespace gam::cat
{

using axiomatic::CandidateExecution;
using isa::FenceKind;
using isa::Instruction;

const ExecView &
ExecBuilder::view(const CandidateExecution &candidate)
{
    if (!any || candidate.rfEpoch != epoch) {
        // An unchanged shape epoch vouches for an unchanged shape; a
        // new one may still bring back the shape already built.
        if (!any || (candidate.shapeEpoch != shapeEpoch
                     && !sameShape(candidate)))
            rebuildShape(candidate);
        rebuildRf(candidate);
        epoch = candidate.rfEpoch;
        shapeEpoch = candidate.shapeEpoch;
        any = true;
    }
    rebuildCoherence(candidate);
    return v;
}

bool
ExecBuilder::sameShape(const CandidateExecution &cand) const
{
    size_t i = 0;
    for (size_t tid = 0; tid < cand.traces.size(); ++tid) {
        for (const model::TraceInstr &ti : *cand.traces[tid]) {
            if (i == shape.size()
                || !(shape[i] == ShapeEntry{tid, ti.instr,
                                            ti.isMem() ? ti.addr : 0}))
                return false;
            ++i;
        }
    }
    return i == shape.size();
}

void
ExecBuilder::rebuildShape(const CandidateExecution &cand)
{
    ++shapeGen;
    shape.clear();
    for (size_t tid = 0; tid < cand.traces.size(); ++tid)
        for (const model::TraceInstr &ti : *cand.traces[tid])
            shape.push_back({tid, ti.instr, ti.isMem() ? ti.addr : 0});

    // ---- Event discovery: memory events (in candidate order) plus
    // fences, thread-major in trace order. ----
    struct EventInfo
    {
        int tid;
        int traceIdx;
        const model::TraceInstr *ti;
        int candIdx; ///< memory events: index into cand.events
    };
    std::vector<EventInfo> events;
    eventOfCand.assign(cand.events.size(), -1);

    size_t cand_idx = 0;
    for (size_t tid = 0; tid < cand.traces.size(); ++tid) {
        const model::Trace &trace = *cand.traces[tid];
        for (size_t k = 0; k < trace.size(); ++k) {
            const model::TraceInstr &ti = trace[k];
            if (ti.isMem()) {
                GAM_ASSERT(cand_idx < cand.events.size()
                               && cand.events[cand_idx].tid == int(tid)
                               && cand.events[cand_idx].traceIdx
                                      == int(k),
                           "candidate events out of sync with traces");
                eventOfCand[cand_idx] = int(events.size());
                events.push_back({int(tid), int(k), &ti,
                                  int(cand_idx)});
                ++cand_idx;
            } else if (ti.instr.isFence()) {
                events.push_back({int(tid), int(k), &ti, -1});
            }
        }
    }
    GAM_ASSERT(cand_idx == cand.events.size(),
               "candidate events out of sync with traces");

    const size_t n = events.size();
    v.n = n;
    v.R = EventSet(n);
    v.W = EventSet(n);
    v.M = EventSet(n);
    v.F = EventSet(n);
    v.RMW = EventSet(n);
    v.FLL = EventSet(n);
    v.FLS = EventSet(n);
    v.FSL = EventSet(n);
    v.FSS = EventSet(n);
    v.po = Rel(n);
    v.loc = Rel(n);
    v.ext = Rel(n);
    v.int_ = Rel(n);
    v.addr = Rel(n);
    v.data = Rel(n);
    v.ctrl = Rel(n);
    v.id = Rel::identity(n);

    // ---- Base sets. ----
    for (size_t e = 0; e < n; ++e) {
        const model::TraceInstr &ti = *events[e].ti;
        if (ti.isLoad())
            v.R.set(e);
        if (ti.isStore())
            v.W.set(e);
        if (ti.isMem())
            v.M.set(e);
        if (ti.instr.isRmw())
            v.RMW.set(e);
        if (ti.instr.isFence()) {
            v.F.set(e);
            switch (ti.instr.fence) {
              case FenceKind::LL: v.FLL.set(e); break;
              case FenceKind::LS: v.FLS.set(e); break;
              case FenceKind::SL: v.FSL.set(e); break;
              case FenceKind::SS: v.FSS.set(e); break;
            }
        }
    }

    // ---- po / loc / ext / int. ----
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const EventInfo &a = events[i], &b = events[j];
            if (a.tid == b.tid) {
                v.int_.set(i, j);
                if (a.traceIdx < b.traceIdx)
                    v.po.set(i, j);
            } else {
                v.ext.set(i, j);
            }
            if (a.ti->isMem() && b.ti->isMem()
                && a.ti->addr == b.ti->addr) {
                v.loc.set(i, j);
            }
        }
    }

    // ---- addr / data / ctrl by per-thread register dataflow. ----
    // flow[r] = the loads whose value reaches register r through
    // reg-to-reg computation only (a load intermediary restarts the
    // flow: the dependency chains through it event-to-event instead).
    for (size_t tid = 0; tid < cand.traces.size(); ++tid) {
        const model::Trace &trace = *cand.traces[tid];
        std::array<EventSet, isa::NUM_REGS> flow;
        flow.fill(EventSet(n));
        EventSet ctrlSrc(n); // loads feeding any prior branch condition

        // Our event index per trace entry of this thread.
        std::map<int, size_t> eventAt;
        for (size_t e = 0; e < n; ++e)
            if (events[e].tid == int(tid))
                eventAt[events[e].traceIdx] = e;

        auto readFlow = [&](const std::vector<isa::Reg> &regs) {
            EventSet s(n);
            for (isa::Reg r : regs)
                s = s | flow[size_t(r)];
            return s;
        };

        for (size_t k = 0; k < trace.size(); ++k) {
            const Instruction &in = trace[k].instr;
            const auto here = eventAt.find(int(k));
            if (here != eventAt.end()) {
                // Every event after a conditional branch is
                // control-dependent on the loads feeding it.
                v.ctrl.addColumn(ctrlSrc, here->second);
            }
            if (in.isMem()) {
                const size_t e = here->second;
                readFlow(in.addrReadSet())
                    .forEach([&](size_t src) { v.addr.set(src, e); });
                readFlow(in.dataReadSet())
                    .forEach([&](size_t src) { v.data.set(src, e); });
                if (in.isLoad()) {
                    // The loaded value originates here.
                    EventSet self(n);
                    self.set(e);
                    if (in.dst != isa::REG_ZERO)
                        flow[size_t(in.dst)] = self;
                }
            } else if (in.isCondBranch()) {
                ctrlSrc = ctrlSrc | readFlow(in.readSet());
            } else if (in.isRegToReg() || in.op == isa::Opcode::LI) {
                if (in.dst != isa::REG_ZERO)
                    flow[size_t(in.dst)] = readFlow(in.readSet());
            }
            // Fences, NOP, HALT, JMP: read no registers.
        }
    }
}

void
ExecBuilder::rebuildRf(const CandidateExecution &cand)
{
    // Reads of the initial memory carry no edge.
    v.rf.reset(v.n);
    for (size_t c = 0; c < cand.events.size(); ++c) {
        const auto &ev = cand.events[c];
        if (ev.isLoad && ev.rfEvent >= 0)
            v.rf.set(size_t(eventOfCand[size_t(ev.rfEvent)]),
                     size_t(eventOfCand[c]));
    }
}

void
ExecBuilder::rebuildCoherence(const CandidateExecution &cand)
{
    const size_t n = v.n;
    v.co.reset(n);
    v.fr.reset(n);

    // co: all ordered pairs of each per-address total order.
    for (size_t ai = 0; ai < cand.coOrder.size(); ++ai) {
        const std::span<const int> order = cand.coOrder.order(ai);
        for (size_t i = 0; i < order.size(); ++i) {
            for (size_t j = i + 1; j < order.size(); ++j) {
                v.co.set(size_t(eventOfCand[size_t(order[i])]),
                         size_t(eventOfCand[size_t(order[j])]));
            }
        }
    }

    // fr: load -> stores coherence-after its source; an initial-memory
    // read precedes every same-address store.  Identity excluded.
    for (size_t c = 0; c < cand.events.size(); ++c) {
        const auto &ld = cand.events[c];
        if (!ld.isLoad)
            continue;
        const size_t l = size_t(eventOfCand[c]);
        // Empty when no store writes this address at all.
        const std::span<const int> order = cand.coOrder.of(ld.addr);
        bool after = ld.rf == model::InitStore; // init: all stores
        for (int s_cand : order) {
            const auto &st = cand.events[size_t(s_cand)];
            if (!after) {
                if (st.sid == ld.rf)
                    after = true; // strictly later stores from here on
                continue;
            }
            const size_t s = size_t(eventOfCand[size_t(s_cand)]);
            if (s != l)
                v.fr.set(l, s);
        }
    }
}

} // namespace gam::cat
