#include "analysis/prescreen.hh"

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "isa/instruction.hh"
#include "isa/semantics.hh"

namespace gam::analysis
{

using isa::Addr;
using isa::FenceKind;
using isa::Instruction;
using isa::Opcode;
using isa::Reg;
using isa::Value;
using litmus::LitmusTest;
using model::ModelKind;

namespace
{

/**
 * A bounded set of 64-bit values: either an explicit sorted set of at
 * most Cap values, or Top (any value).  The abstraction is a plain
 * powerset domain with a cardinality widening, so every operation is
 * a sound over-approximation of the concrete operation.  The values
 * live inline: the fixpoint copies and joins register files per
 * instruction, and a heap-backed set made that allocation-bound.
 */
struct ValSet
{
    static constexpr size_t Cap = 24;

    bool top = false;
    uint8_t len = 0; ///< explicit values; 0 and !top = bottom
    std::array<Value, Cap> vals{}; ///< sorted, unique in [0, len)

    static ValSet
    singleton(Value v)
    {
        ValSet s;
        s.vals[0] = v;
        s.len = 1;
        return s;
    }

    static ValSet
    topSet()
    {
        ValSet s;
        s.top = true;
        return s;
    }

    const Value *begin() const { return vals.data(); }
    const Value *end() const { return vals.data() + len; }

    bool isSingleton() const { return !top && len == 1; }

    bool
    contains(Value v) const
    {
        return top || std::binary_search(begin(), end(), v);
    }

    /** Add @p v; true when the set changed. */
    bool
    add(Value v)
    {
        if (top)
            return false;
        Value *first = vals.data();
        Value *it = std::lower_bound(first, first + len, v);
        if (it != first + len && *it == v)
            return false;
        if (len == Cap) {
            top = true; // widening: one value past Cap saturates
            len = 0;
            return true;
        }
        std::copy_backward(it, first + len, first + len + 1);
        *it = v;
        ++len;
        return true;
    }

    /** Join @p other into this set; true when the set changed. */
    bool
    join(const ValSet &other)
    {
        if (top)
            return false;
        if (other.top) {
            top = true;
            len = 0;
            return true;
        }
        bool changed = false;
        for (Value v : other)
            changed |= add(v);
        return changed;
    }

    bool
    operator==(const ValSet &other) const
    {
        return top == other.top
            && std::equal(begin(), end(), other.begin(), other.end());
    }
};

/** Pointwise map of @p f over @p s (Top maps to Top). */
template <typename F>
ValSet
mapSet(const ValSet &s, F f)
{
    if (s.top)
        return ValSet::topSet();
    ValSet out;
    for (Value v : s)
        out.add(f(v));
    return out;
}

/** Pointwise map of @p f over the product of two sets. */
template <typename F>
ValSet
mapSet2(const ValSet &a, const ValSet &b, F f)
{
    if (a.top || b.top)
        return ValSet::topSet();
    ValSet out;
    for (Value va : a) {
        for (Value vb : b) {
            out.add(f(va, vb));
            if (out.top)
                return out;
        }
    }
    return out;
}

/**
 * One thread's registers, renamed onto dense slots: only the registers
 * its instructions name get an abstract value, so a register file is a
 * handful of sets rather than isa::NUM_REGS of them.  A register the
 * thread never names keeps its initial value 0.
 */
struct RegSlots
{
    std::array<uint8_t, isa::NUM_REGS> slotOf;
    size_t count = 0;

    static constexpr uint8_t None = 0xff;

    explicit RegSlots(const isa::Program &prog)
    {
        slotOf.fill(None);
        auto name = [&](Reg r) {
            if (slotOf[size_t(r)] == None)
                slotOf[size_t(r)] = uint8_t(count++);
        };
        for (size_t k = 0; k < prog.size(); ++k) {
            name(prog[k].dst);
            name(prog[k].src1);
            name(prog[k].src2);
        }
    }

    size_t operator()(Reg r) const { return slotOf[size_t(r)]; }
};

/** A memory access's abstract address set, in program order. */
struct MemAccess
{
    size_t idx = 0;
    /** False when no path reaches the access (no address claims). */
    bool reached = false;
    ValSet addrs;
};

/**
 * Per-address universes of values stores can write, iterated to a
 * cross-thread fixpoint.  A store whose address set saturates
 * contributes to every address through the wild bucket.
 */
struct Universe
{
    std::vector<std::pair<Addr, ValSet>> perAddr; ///< sorted by address
    bool wildStore = false;
    ValSet wildVals;

    const ValSet *
    find(Addr a) const
    {
        auto it = std::lower_bound(
            perAddr.begin(), perAddr.end(), a,
            [](const auto &e, Addr key) { return e.first < key; });
        return it != perAddr.end() && it->first == a ? &it->second
                                                     : nullptr;
    }

    ValSet &
    at(Addr a)
    {
        auto it = std::lower_bound(
            perAddr.begin(), perAddr.end(), a,
            [](const auto &e, Addr key) { return e.first < key; });
        if (it == perAddr.end() || it->first != a)
            it = perAddr.insert(it, {a, ValSet{}});
        return it->second;
    }
};

/**
 * The value fixpoint.  Lives only while PrescreenAnalysis is built:
 * what outlives it is each memory access's address set (all the SC
 * delegate reads) and the value-cover verdict.
 */
struct ValueAnalysis
{
    const LitmusTest &test;
    Universe uni;
    bool bailed = false;
    /** Set by a contribution that grew the universe this round. */
    bool grew = false;

    std::vector<RegSlots> slots;
    /** Each thread's memory accesses, recorded every round. */
    std::vector<std::vector<MemAccess>> access;
    /** Each thread's register file at exit, when a path reaches it. */
    std::vector<std::vector<ValSet>> exit;
    std::vector<char> exitReached;

    /** Pending register file per instruction, reused across passes. */
    std::vector<ValSet> pending;
    std::vector<char> engaged;

    explicit ValueAnalysis(const LitmusTest &t) : test(t)
    {
        for (const isa::Program &prog : t.threads)
            slots.emplace_back(prog);
        access.resize(t.threads.size());
        exit.resize(t.threads.size());
        exitReached.resize(t.threads.size());
    }

    /** Values a load with abstract address set @p addrs can observe. */
    ValSet
    loadFrom(const ValSet &addrs) const
    {
        if (addrs.top)
            return ValSet::topSet();
        ValSet out;
        for (Value a : addrs) {
            if (a & 7)
                continue; // no well-formed execution reaches it
            out.add(test.initialMem.load(a));
            if (const ValSet *s = uni.find(a))
                out.join(*s);
        }
        if (uni.wildStore)
            out.join(uni.wildVals);
        return out;
    }

    /** All values the final memory word at @p a can hold. */
    ValSet
    finalMemValues(Addr a) const
    {
        ValSet out;
        out.add(test.initialMem.load(a));
        if (const ValSet *s = uni.find(a))
            out.join(*s);
        if (uni.wildStore)
            out.join(uni.wildVals);
        return out;
    }

    void
    contributeStore(const ValSet &addrs, const ValSet &data)
    {
        if (addrs.top) {
            grew |= !uni.wildStore;
            uni.wildStore = true;
            grew |= uni.wildVals.join(data);
            return;
        }
        for (Value a : addrs) {
            if (a & 7)
                continue;
            grew |= uni.at(a).join(data);
        }
    }

    /**
     * One abstract pass over thread @p tid, joining over all forward
     * branch outcomes.  Contributes store values to the universe and
     * records each memory access's address set and the exit state.
     */
    void
    interpretThread(size_t tid)
    {
        const isa::Program &prog = test.threads[tid];
        const RegSlots &rs = slots[tid];
        const size_t n = prog.size();
        const size_t w = rs.count;
        pending.assign((n + 1) * w, ValSet{});
        engaged.assign(n + 1, 0);
        auto state = [&](size_t k) { return pending.data() + k * w; };
        auto joinInto = [&](size_t k, const ValSet *src) {
            ValSet *dst = state(k);
            if (!engaged[k]) {
                std::copy(src, src + w, dst);
                engaged[k] = 1;
                return;
            }
            for (size_t r = 0; r < w; ++r)
                dst[r].join(src[r]);
        };
        std::fill(state(0), state(0) + w, ValSet::singleton(0));
        engaged[0] = 1;

        std::vector<MemAccess> &acc = access[tid];
        acc.clear();
        std::vector<ValSet> &exitState = exit[tid];
        exitReached[tid] = 0;
        auto joinExit = [&](const ValSet *src) {
            if (!exitReached[tid]) {
                exitState.assign(src, src + w);
                exitReached[tid] = 1;
                return;
            }
            for (size_t r = 0; r < w; ++r)
                exitState[r].join(src[r]);
        };

        for (size_t k = 0; k < n && !bailed; ++k) {
            const Instruction &in = prog[k];
            if (!engaged[k]) {
                if (in.isMem())
                    acc.push_back({k, false, ValSet{}});
                continue; // statically unreachable
            }
            // Updated in place: no later instruction reads state k.
            ValSet *st = state(k);
            auto addrSet = [&] {
                return mapSet(st[rs(in.src1)],
                              [&](Value base) { return in.imm + base; });
            };
            if (in.isMem())
                acc.push_back({k, true, addrSet()});
            bool fallThrough = true;

            auto branchTo = [&](int64_t target) {
                if (target <= int64_t(k) || target > int64_t(n)) {
                    bailed = true; // engines require forward targets
                    return;
                }
                joinInto(size_t(target), st);
            };

            if (in.isRegToReg() || in.op == Opcode::LI) {
                st[rs(in.dst)] = mapSet2(
                    st[rs(in.src1)], st[rs(in.src2)],
                    [&](Value a, Value b) {
                        return isa::evalRegToReg(in, a, b);
                    });
            } else if (in.op == Opcode::LD) {
                st[rs(in.dst)] = loadFrom(acc.back().addrs);
            } else if (in.op == Opcode::ST) {
                contributeStore(acc.back().addrs, st[rs(in.src2)]);
            } else if (in.isRmw()) {
                const ValSet &addrs = acc.back().addrs;
                const ValSet loaded = loadFrom(addrs);
                const ValSet stored =
                    mapSet2(loaded, st[rs(in.src2)],
                            [&](Value old_v, Value s2) {
                                return isa::evalRmwStored(in, old_v,
                                                          s2);
                            });
                contributeStore(addrs, stored);
                st[rs(in.dst)] = loaded;
            } else if (in.isCondBranch()) {
                branchTo(in.imm); // both directions stay joined
            } else if (in.op == Opcode::JMP) {
                branchTo(in.imm);
                fallThrough = false;
            } else if (in.op == Opcode::HALT) {
                joinExit(st);
                fallThrough = false;
            }
            // NOP and FENCE leave the register file untouched.

            if (fallThrough)
                joinInto(k + 1, st);
        }
        if (engaged[n])
            joinExit(state(n));
    }

    /** @return false when the analysis bailed (make no claims). */
    bool
    run()
    {
        const size_t nthreads = test.threads.size();
        // Universes only grow and saturate at Cap values per address;
        // the loop terminates long before the safety bound.  Every
        // pass records, so the round that changes nothing -- every
        // thread saw the final universe -- leaves the final states.
        bool stable = false;
        for (int round = 0; round < 100 && !bailed && !stable; ++round) {
            grew = false;
            for (size_t tid = 0; tid < nthreads; ++tid)
                interpretThread(tid);
            stable = !grew;
        }
        if (!stable && !bailed) {
            for (size_t tid = 0; tid < nthreads; ++tid)
                interpretThread(tid);
        }
        return !bailed;
    }
};

// ----------------------------------------------------- value cover

/**
 * A condition conjunct whose required value lies outside the abstract
 * cover can never be satisfied.  Returns a justification, or nullopt.
 */
std::optional<std::string>
valueCoverForbidden(const ValueAnalysis &va)
{
    const LitmusTest &test = va.test;
    for (const auto &rc : test.regCond) {
        if (rc.tid < 0 || size_t(rc.tid) >= test.threads.size()
            || rc.reg < 0 || rc.reg >= isa::NUM_REGS) {
            return std::nullopt; // malformed; let the engine assert
        }
        if (!va.exitReached[size_t(rc.tid)])
            continue; // no path reaches the thread's exit
        const std::vector<ValSet> &ex = va.exit[size_t(rc.tid)];
        const size_t slot = va.slots[size_t(rc.tid)](rc.reg);
        const bool holds = slot == RegSlots::None
            ? rc.value == 0 // never named: keeps its initial 0
            : ex[slot].contains(rc.value);
        if (!holds) {
            std::ostringstream os;
            os << "no execution can leave "
               << isa::regName(rc.reg) << " of thread " << rc.tid
               << " holding " << rc.value;
            return os.str();
        }
    }
    for (const auto &mc : test.memCond) {
        if (mc.addr & 7)
            return std::nullopt;
        if (!va.finalMemValues(mc.addr).contains(mc.value)) {
            std::ostringstream os;
            os << "no execution can leave [0x" << std::hex << mc.addr
               << std::dec << "] holding " << mc.value;
            return os.str();
        }
    }
    return std::nullopt;
}

// ------------------------------------------------------ sc delegate

/** Static po-forward load-value flow, as cat/exec.cc computes it. */
struct FlowInfo
{
    /** Loads (instruction indices) feeding each instr's address regs. */
    std::vector<std::set<size_t>> addrFlow;
    /** Loads feeding each instr's store-data regs. */
    std::vector<std::set<size_t>> dataFlow;
};

FlowInfo
computeFlow(const isa::Program &prog, size_t limit)
{
    FlowInfo info;
    info.addrFlow.assign(limit, {});
    info.dataFlow.assign(limit, {});
    std::array<std::set<size_t>, isa::NUM_REGS> flow;
    auto readFlow = [&](const std::vector<Reg> &regs) {
        std::set<size_t> s;
        for (Reg r : regs)
            s.insert(flow[size_t(r)].begin(), flow[size_t(r)].end());
        return s;
    };
    for (size_t k = 0; k < limit; ++k) {
        const Instruction &in = prog[k];
        if (in.isMem()) {
            info.addrFlow[k] = readFlow(in.addrReadSet());
            info.dataFlow[k] = readFlow(in.dataReadSet());
            if (in.isLoad() && in.dst != isa::REG_ZERO)
                flow[size_t(in.dst)] = {k};
        } else if (in.isRegToReg() || in.op == Opcode::LI) {
            if (in.dst != isa::REG_ZERO)
                flow[size_t(in.dst)] = readFlow(in.readSet());
        }
    }
    return info;
}

/** Each thread's memory accesses in program order (see MemAccess). */
using AccessTable = std::vector<std::vector<MemAccess>>;

struct DelegateChecker
{
    const LitmusTest &test;
    const AccessTable &access;
    const ModelKind model;

    static bool
    sameSingletonAddr(const ValSet &a, const ValSet &b)
    {
        return a.isSingleton() && b.isSingleton()
            && a.vals[0] == b.vals[0];
    }

    /**
     * Is the po-adjacent memory pair (mems[p], mems[p + 1]) of a
     * branchless thread provably preserved program order under the
     * model?  @p mems holds the thread's executed memory accesses.
     */
    bool
    pairPreserved(const isa::Program &prog, const FlowInfo &flow,
                  const std::vector<MemAccess> &mems, size_t p) const
    {
        const size_t i = mems[p].idx;
        const size_t j = mems[p + 1].idx;
        const Instruction &a = prog[i];
        const Instruction &b = prog[j];

        // FenceOrd / the TSO fence rule: a FenceXY between the pair
        // with matching endpoint types.
        for (size_t k = i + 1; k < j; ++k) {
            const Instruction &f = prog[k];
            if (f.isFence() && a.isMemType(isa::fencePre(f.fence))
                && b.isMemType(isa::fencePost(f.fence))) {
                return true;
            }
        }
        if (model == ModelKind::TSO) {
            // Everything but the pure-store -> pure-load relaxation.
            return !(a.isStore() && !a.isRmw() && b.isLoad()
                     && !b.isRmw());
        }

        // GAM0 / GAM Definition 6 cases.
        const ValSet &addrA = mems[p].addrs;
        const ValSet &addrB = mems[p + 1].addrs;
        // SAMemSt: a store after an older same-address access.
        if (b.isStore() && sameSingletonAddr(addrA, addrB))
            return true;
        // RegRAW: the pair's own address/data dependency.
        if (a.isLoad()
            && (flow.addrFlow[j].count(i) || flow.dataFlow[j].count(i)))
            return true;
        // AddrSt: a store after the address producers of any older
        // memory access.
        if (b.isStore() && a.isLoad()) {
            for (size_t q = 0; q <= p; ++q)
                if (flow.addrFlow[mems[q].idx].count(i))
                    return true;
        }
        // SALdLd (GAM only): same-address loads with no same-address
        // store between -- a po-adjacent pair has no access between it
        // at all.  (SAStLd orders a load after a same-address store
        // between the two loads, so it never applies to such a pair.)
        if (model == ModelKind::GAM && a.isLoad() && b.isLoad()
            && sameSingletonAddr(addrA, addrB))
            return true;
        return false;
    }

    /**
     * True when po restricted to memory events is provably inside
     * ppo+, making the model's ordering axiom coincide with SC's.
     */
    bool
    delegates() const
    {
        std::vector<MemAccess> mems;
        for (size_t tid = 0; tid < test.threads.size(); ++tid) {
            const isa::Program &prog = test.threads[tid];
            // Scan the whole program: a branch can jump over a HALT,
            // so instructions after one may still execute.
            bool branchy = false;
            size_t memCount = 0;
            for (size_t k = 0; k < prog.size(); ++k) {
                branchy |= prog[k].isBranch();
                memCount += prog[k].isMem();
            }
            if (branchy) {
                // Path-sensitive ordering evidence is out of scope; a
                // thread with at most one access has no pair to order.
                if (memCount <= 1)
                    continue;
                return false;
            }
            // Branchless: execution is the static prefix up to the
            // first HALT; anything past it never runs.
            size_t limit = prog.size();
            for (size_t k = 0; k < prog.size(); ++k) {
                if (prog[k].op == Opcode::HALT) {
                    limit = k;
                    break;
                }
            }
            mems.clear();
            for (const MemAccess &m : access[tid]) {
                if (m.idx >= limit)
                    break;
                if (!m.reached)
                    return false; // unreachable state: be conservative
                mems.push_back(m);
            }
            const FlowInfo flow = computeFlow(prog, limit);
            for (size_t p = 0; p + 1 < mems.size(); ++p)
                if (!pairPreserved(prog, flow, mems, p))
                    return false;
        }
        return true;
    }
};

} // anonymous namespace

std::string
prescreenVerdictName(PrescreenVerdict verdict)
{
    switch (verdict) {
      case PrescreenVerdict::Forbidden: return "value-cover";
      case PrescreenVerdict::ScEquivalent: return "sc-delegate";
      case PrescreenVerdict::Unknown: break;
    }
    return "";
}

struct PrescreenAnalysis::Impl
{
    /** False when the value fixpoint bailed (no claims). */
    bool analysed = false;
    /** Each memory access's address set: all screen() reads. */
    AccessTable access;
    /** The model-independent verdict: Forbidden or Unknown. */
    PrescreenResult base;
};

PrescreenAnalysis::PrescreenAnalysis(const LitmusTest &test)
    : test(test), impl(std::make_unique<Impl>())
{
    if (test.threads.empty())
        return;
    ValueAnalysis va(test);
    if (!va.run())
        return;
    impl->analysed = true;
    if (!test.regCond.empty() || !test.memCond.empty()) {
        if (auto why = valueCoverForbidden(va)) {
            impl->base.verdict = PrescreenVerdict::Forbidden;
            impl->base.detail = *why;
        }
    }
    // The exit states and the universe die with the fixpoint.
    impl->access = std::move(va.access);
}

PrescreenAnalysis::~PrescreenAnalysis() = default;

PrescreenResult
PrescreenAnalysis::screen(ModelKind model) const
{
    PrescreenResult result = impl->base;
    if (!impl->analysed || result.verdict == PrescreenVerdict::Forbidden)
        return result;

    if (model == ModelKind::TSO || model == ModelKind::GAM0
        || model == ModelKind::GAM) {
        DelegateChecker checker{test, impl->access, model};
        if (checker.delegates()) {
            result.verdict = PrescreenVerdict::ScEquivalent;
            result.detail = "every po-adjacent memory pair is "
                            "preserved program order; outcomes equal "
                            "SC's";
        }
    }
    return result;
}

PrescreenResult
prescreen(const LitmusTest &test, ModelKind model)
{
    return PrescreenAnalysis(test).screen(model);
}

} // namespace gam::analysis
