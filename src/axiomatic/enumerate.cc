#include "axiomatic/enumerate.hh"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <set>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "isa/semantics.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace gam::axiomatic
{

using isa::Addr;
using isa::Instruction;
using isa::Value;
using model::InitStore;
using model::StoreId;

isa::Value
initialMemValue(const isa::MemImage &mem, Addr addr)
{
    if (addr & 7)
        return 0;
    return mem.load(addr);
}

void
CheckerStats::merge(const CheckerStats &other)
{
    rfCandidates += other.rfCandidates;
    valueConsistent += other.valueConsistent;
    coCandidates += other.coCandidates;
    accepted += other.accepted;
    valueCycles += other.valueCycles;
    shapeChanges += other.shapeChanges;
    rfStaticSkipped += other.rfStaticSkipped;
    rfPruned += other.rfPruned;
    partialsPruned += other.partialsPruned;
    subtreesSkipped += other.subtreesSkipped;
    maxBacktrackDepth =
        std::max(maxBacktrackDepth, other.maxBacktrackDepth);
}

Options
withConditionSeeds(const litmus::LitmusTest &test, Options options)
{
    if (options.seedValues.empty()) {
        std::set<Value> seeds;
        for (const auto &rc : test.regCond)
            seeds.insert(rc.value);
        for (const auto &mc : test.memCond)
            seeds.insert(mc.value);
        options.seedValues.assign(seeds.begin(), seeds.end());
    }
    return options;
}

namespace
{

/** Scratch::Site::known bits. */
constexpr uint8_t Executed = 1, KnownAddr = 2, KnownData = 4,
                  KnownData2 = 8;

/** Source of CandidateBuilder ids (0 is "no builder yet"). */
std::atomic<uint64_t> nextBuilderId{1};

/**
 * `xor r, x, x` and `sub r, x, x`: 0 whatever x holds, so no value
 * flows through them (the dependency idiom of generated tests).
 */
bool
zeroingIdiom(const Instruction &in)
{
    return in.src1 == in.src2
        && (in.op == isa::Opcode::XOR || in.op == isa::Opcode::SUB);
}

/** a * b, saturating at UINT64_MAX (subtree-size accounting). */
uint64_t
satMul(uint64_t a, uint64_t b)
{
    if (a != 0 && b > ~uint64_t(0) / a)
        return ~uint64_t(0);
    return a * b;
}

/** a + b, saturating. */
uint64_t
satAdd(uint64_t a, uint64_t b)
{
    return b > ~uint64_t(0) - a ? ~uint64_t(0) : a + b;
}

/** n!, saturating. */
uint64_t
satFactorial(uint64_t n)
{
    uint64_t f = 1;
    for (uint64_t k = 2; k <= n; ++k)
        f = satMul(f, k);
    return f;
}

} // anonymous namespace

// ---------------------------------------------------- CandidateBuilder

CandidateBuilder::CandidateBuilder(const litmus::LitmusTest &test,
                                   Options options)
    : _test(test), _options(std::move(options)),
      _id(nextBuilderId.fetch_add(1, std::memory_order_relaxed))
{
    _siteBase.push_back(0);
    for (size_t tid = 0; tid < test.threads.size(); ++tid) {
        const auto &prog = test.threads[tid];
        GAM_ASSERT(prog.size() < 1024, "thread too long for StoreId");
        _siteBase.push_back(_siteBase.back() + prog.size());
        _maxThreadLen = std::max(_maxThreadLen, prog.size());
        for (size_t idx = 0; idx < prog.size(); ++idx) {
            _loadOrdinal.push_back(
                prog[idx].isLoad() ? int(_loadSites.size()) : -1);
            const Instruction &instr = prog[idx];
            // Untrusted tests (parsed or generated) are screened by
            // LitmusTest::check() before reaching any engine; this
            // fatal() only fires on programmatic misuse.
            if (instr.isBranch() && instr.imm <= static_cast<int64_t>(idx))
                fatal("axiomatic checker requires forward branches "
                      "(thread %zu instr %zu)", tid, idx);
            if (instr.isLoad())
                _loadSites.emplace_back(static_cast<int>(tid),
                                        static_cast<int>(idx));
            if (instr.isStore())
                _storeSites.push_back(storeId(static_cast<int>(tid),
                                              static_cast<int>(idx)));
        }
    }
    computeStaticFeasibility();
}

void
CandidateBuilder::computeStaticFeasibility()
{
    // Per-site address when it is a function of constants only: such
    // an address is the same in every execution in which the site
    // executes, so a load whose constant address differs from a
    // store's constant address can never read from it.  `xor r, x, x`
    // and `sub r, x, x` are 0 even when x was loaded, so an address
    // behind that dependency idiom stays constant.  Loaded values
    // are unknown, and the walk stops at the first branch whose
    // direction depends on one (everything after keeps an unknown
    // address) -- conservative, but enough to collapse the read-from
    // space of the common litmus shape where addresses come from
    // constant preludes.
    //
    // This walk is a deliberately separate abstract interpreter from
    // computeExecution()'s runFixpoint() below (unknown load values,
    // single prefix, no rf), with the same value-independent cases
    // (zeroingIdiom(), x ? x branches): keep their opcode dispatch in
    // sync when the ISA changes.  Drift is unsound only in the skipping
    // direction and shows up immediately as an outcome-set difference
    // in tests/enumerate_test.cc's pruned-vs-legacy parity suites.
    std::vector<std::vector<std::optional<Value>>> staticAddr(
        _test.threads.size());
    for (size_t tid = 0; tid < _test.threads.size(); ++tid) {
        const auto &prog = _test.threads[tid];
        auto &addrs = staticAddr[tid];
        addrs.assign(prog.size(), std::nullopt);

        std::array<std::optional<Value>, isa::NUM_REGS> regs;
        regs.fill(Value{0});
        auto get = [&](isa::Reg r) { return regs[size_t(r)]; };
        auto set = [&](isa::Reg r, std::optional<Value> v) {
            if (r != isa::REG_ZERO)
                regs[size_t(r)] = v;
        };

        size_t idx = 0;
        while (idx < prog.size()) {
            const Instruction &in = prog[idx];
            if (in.isRegToReg()) {
                auto a = get(in.src1), b = get(in.src2);
                if (zeroingIdiom(in)) {
                    set(in.dst, Value{0}); // the zeroing idiom above
                } else {
                    set(in.dst, a && b
                        ? std::optional(isa::evalRegToReg(in, *a, *b))
                        : std::nullopt);
                }
            } else if (in.isMem()) {
                if (auto base = get(in.src1))
                    addrs[idx] = isa::effectiveAddr(in, *base);
                if (in.isLoad())
                    set(in.dst, std::nullopt);
            } else if (in.isBranch()) {
                bool taken;
                if (in.op == isa::Opcode::JMP) {
                    taken = true;
                } else if (in.src1 == in.src2) {
                    // x ? x is value-independent: BEQ/BGE taken,
                    // BNE/BLT fall through.
                    taken = in.op == isa::Opcode::BEQ
                        || in.op == isa::Opcode::BGE;
                } else if (auto a = get(in.src1), b = get(in.src2);
                           a && b) {
                    taken = isa::evalBranchTaken(in, *a, *b);
                } else {
                    break; // direction value-dependent: stop the walk
                }
                if (taken) {
                    idx = size_t(in.imm);
                    continue;
                }
            } else if (in.op == isa::Opcode::HALT) {
                break;
            }
            ++idx;
        }
    }

    auto addrOf = [&](StoreId sid) {
        auto [tid, idx] = storeIdParts(sid);
        return staticAddr[size_t(tid)][size_t(idx)];
    };

    _rfChoices.resize(_loadSites.size());
    uint64_t full = 1, feasible = 1;
    for (size_t i = 0; i < _loadSites.size(); ++i) {
        auto [tid, idx] = _loadSites[i];
        const auto loadAddr = staticAddr[size_t(tid)][size_t(idx)];
        auto &choices = _rfChoices[i];
        choices.push_back(InitStore);
        for (StoreId sid : _storeSites) {
            const auto storeAddr = addrOf(sid);
            if (loadAddr && storeAddr && *loadAddr != *storeAddr)
                continue; // provably different addresses
            choices.push_back(sid);
        }
        full = satMul(full, uint64_t(_storeSites.size()) + 1);
        feasible = satMul(feasible, uint64_t(choices.size()));
    }
    _rfStaticSkipped = full - feasible;
}

std::optional<Value>
CandidateBuilder::suppliedValue(StoreId src,
                                const std::vector<Site> &sites) const
{
    // An RMW supplies what it wrote, not what it loaded.
    auto [stid, sidx] = storeIdParts(src);
    const Site &s = sites[site(stid, sidx)];
    if (_test.threads[size_t(stid)][size_t(sidx)].isRmw())
        return s.known & KnownData2 ? std::optional(s.data2)
                                    : std::nullopt;
    return s.known & KnownData ? std::optional(s.data) : std::nullopt;
}

void
CandidateBuilder::runFixpoint(const std::vector<StoreId> &rf,
                              Scratch &scratch, Value seed) const
{
    std::vector<Site> &sites = scratch.sites;
    std::vector<Site> &next = scratch.next;
    const size_t nthreads = _test.threads.size();

    // A load's value: the seed when overridden, else its rf source's.
    auto loaded = [&](size_t ordinal, const Site &sv, Value &v) {
        if (scratch.seeded[ordinal]) {
            v = seed;
            return true;
        }
        const StoreId src = rf[ordinal];
        if (src == InitStore) {
            if (!(sv.known & KnownAddr))
                return false;
            v = initialMemValue(_test.initialMem, sv.addr);
            return true;
        }
        const auto supplied = suppliedValue(src, sites);
        if (supplied)
            v = *supplied;
        return supplied.has_value();
    };

    // Iterate thread executions until site values stabilise.  Each
    // thread re-runs from its first instruction every round, reading
    // other sites (its own included) as the previous pass left them.
    const size_t total_instrs = _siteBase.back();
    for (size_t round = 0; round <= total_instrs + 1; ++round) {
        bool changed = false;
        for (size_t tid = 0; tid < nthreads; ++tid) {
            const auto &prog = _test.threads[tid];
            const size_t base = _siteBase[tid];
            std::array<Value, isa::NUM_REGS> regs{};
            uint64_t regKnown = ~uint64_t(0);
            std::fill_n(next.begin(), prog.size(), Site{});

            auto known = [&](isa::Reg r) {
                return (regKnown >> unsigned(r)) & 1;
            };
            auto set = [&](isa::Reg r, bool ok, Value v) {
                if (r == isa::REG_ZERO)
                    return;
                const uint64_t bit = uint64_t(1) << unsigned(r);
                regKnown = ok ? regKnown | bit : regKnown & ~bit;
                regs[size_t(r)] = ok ? v : 0;
            };

            size_t idx = 0;
            while (idx < prog.size()) {
                const Instruction &in = prog[idx];
                Site &sv = next[idx];
                sv.known = Executed;
                if (in.isRegToReg()) {
                    // x ^ x and x - x are 0 whatever x holds (unknown
                    // registers read 0, so they evaluate right).
                    const bool ok = zeroingIdiom(in)
                        || (known(in.src1) && known(in.src2));
                    set(in.dst, ok,
                        ok ? isa::evalRegToReg(in, regs[size_t(in.src1)],
                                               regs[size_t(in.src2)])
                           : 0);
                } else if (in.isMem()) {
                    if (known(in.src1)) {
                        sv.addr = isa::effectiveAddr(in,
                                                     regs[size_t(in.src1)]);
                        sv.known |= KnownAddr;
                    }
                    if (in.isLoad()) {
                        // Loads and RMWs: data is the loaded value.
                        const size_t ordinal =
                            size_t(_loadOrdinal[base + idx]);
                        Value v = 0;
                        const bool ok = loaded(ordinal, sv, v);
                        if (ok) {
                            sv.data = v;
                            sv.known |= KnownData;
                        }
                        // A swap's stored value is known without
                        // its loaded one, which breaks value cycles
                        // through it.
                        if (in.isRmw() && known(in.src2)
                            && (ok || !isa::rmwStoredReadsOld(in))) {
                            sv.data2 = isa::evalRmwStored(
                                in, v, regs[size_t(in.src2)]);
                            sv.known |= KnownData2;
                        }
                        set(in.dst, ok, v);
                    } else if (known(in.src2)) {
                        sv.data = regs[size_t(in.src2)];
                        sv.known |= KnownData;
                    }
                } else if (in.isBranch()) {
                    // x ? x is value-independent (unknown registers
                    // read 0, so it evaluates right); any other
                    // direction unknown stops the thread this round.
                    const bool ok = in.src1 == in.src2
                        || (known(in.src1) && known(in.src2));
                    if (in.op != isa::Opcode::JMP && !ok)
                        break;
                    if (isa::evalBranchTaken(in, regs[size_t(in.src1)],
                                             regs[size_t(in.src2)])) {
                        idx = size_t(in.imm);
                        continue;
                    }
                } else if (in.op == isa::Opcode::HALT) {
                    break;
                }
                ++idx;
            }

            if (!std::equal(next.begin(), next.begin() + prog.size(),
                            sites.begin() + base)) {
                changed = true;
                std::copy_n(next.begin(), prog.size(),
                            sites.begin() + base);
            }
        }
        if (!changed)
            return;
    }
    // Stabilised by the instruction-count bound.
}

bool
CandidateBuilder::loadsConsistent(const std::vector<StoreId> &rf,
                                  const std::vector<Site> &sites) const
{
    for (size_t i = 0; i < _loadSites.size(); ++i) {
        const Site &sv = sites[site(_loadSites[i].first,
                                    _loadSites[i].second)];
        if (!(sv.known & Executed))
            continue;
        if (!(sv.known & KnownAddr) || !(sv.known & KnownData))
            return false;
        const std::optional<Value> expect = rf[i] == InitStore
            ? std::optional(initialMemValue(_test.initialMem, sv.addr))
            : suppliedValue(rf[i], sites);
        if (!expect || *expect != sv.data)
            return false;
    }
    return true;
}

bool
CandidateBuilder::commitTraces(const std::vector<StoreId> &rf,
                               Scratch &scratch) const
{
    // Written in place over the previous call's traces: the shape
    // epoch bumps (once) at the first entry whose static index or
    // address differs, or when a thread's length changes.
    bool shapeChanged = false;
    auto markChanged = [&] {
        if (!shapeChanged) {
            shapeChanged = true;
            ++scratch.shapeEpoch;
        }
    };

    const std::vector<Site> &sites = scratch.sites;
    for (size_t tid = 0; tid < _test.threads.size(); ++tid) {
        const auto &prog = _test.threads[tid];
        ThreadExec &te = scratch.exec[tid];
        te.complete = false;
        te.regs.fill(Value{0});
        size_t k = 0; // trace entries written
        auto append = [&](int idx, const model::TraceInstr &ti,
                          StoreId rf_src) {
            if (k < te.trace.size()) {
                if (te.executedIdx[k] != idx || te.trace[k].addr != ti.addr)
                    markChanged();
                te.executedIdx[k] = idx;
                te.trace[k] = ti;
                te.rfTrace[k] = rf_src;
            } else {
                markChanged();
                te.executedIdx.push_back(idx);
                te.trace.push_back(ti);
                te.rfTrace.push_back(rf_src);
            }
            ++k;
        };

        size_t idx = 0;
        bool complete = false;
        while (true) {
            if (idx >= prog.size()) {
                complete = true;
                break;
            }
            const Instruction &in = prog[idx];
            const Site &sv = sites[site(int(tid), int(idx))];
            if (!(sv.known & Executed))
                break;

            model::TraceInstr ti;
            ti.instr = in;
            StoreId rf_src = InitStore;
            size_t next_idx = idx + 1;

            if (in.isRegToReg()) {
                auto a = te.regs[size_t(in.src1)];
                auto b = te.regs[size_t(in.src2)];
                if (!(a && b))
                    return false;
                if (in.dst != isa::REG_ZERO)
                    te.regs[size_t(in.dst)] =
                        isa::evalRegToReg(in, *a, *b);
            } else if (in.isMem()) {
                if (!(sv.known & KnownAddr) || !(sv.known & KnownData))
                    return false; // undetermined value cycle remains
                if (in.isRmw() && !(sv.known & KnownData2))
                    return false;
                if (sv.addr & 7)
                    return false; // bogus rf guess computed a bad address
                ti.addr = sv.addr;
                ti.value = sv.data;
                if (in.isRmw())
                    ti.rmwStored = sv.data2;
                if (in.isLoad()) {
                    rf_src = rf[size_t(_loadOrdinal[site(int(tid),
                                                         int(idx))])];
                    if (in.dst != isa::REG_ZERO)
                        te.regs[size_t(in.dst)] = sv.data;
                }
            } else if (in.isBranch()) {
                auto a = te.regs[size_t(in.src1)];
                auto b = te.regs[size_t(in.src2)];
                if (in.op != isa::Opcode::JMP && !(a && b))
                    return false;
                if (isa::evalBranchTaken(in, a ? *a : 0, b ? *b : 0))
                    next_idx = size_t(in.imm);
            } else if (in.op == isa::Opcode::HALT) {
                append(int(idx), ti, InitStore);
                complete = true;
                break;
            }

            append(int(idx), ti, rf_src);
            idx = next_idx;
        }
        if (k != te.trace.size()) {
            markChanged();
            te.executedIdx.resize(k);
            te.trace.resize(k);
            te.rfTrace.resize(k);
        }
        if (!complete)
            return false;
        te.complete = true;
    }
    return true;
}

bool
CandidateBuilder::computeExecution(const std::vector<StoreId> &rf,
                                   Scratch &scratch) const
{
    const size_t nthreads = _test.threads.size();
    if (scratch.owner != _id) {
        // A new test: drop the previous one's traces (keeping their
        // buffers) so nothing of its shape can carry over.
        scratch.owner = _id;
        ++scratch.shapeEpoch;
        scratch.exec.resize(nthreads);
        for (ThreadExec &te : scratch.exec) {
            te.executedIdx.clear();
            te.trace.clear();
            te.rfTrace.clear();
        }
        scratch.next.resize(_maxThreadLen);
        scratch.seeded.resize(_loadSites.size());
    }
    scratch.sites.assign(_siteBase.back(), Site{});
    std::fill(scratch.seeded.begin(), scratch.seeded.end(), 0);

    runFixpoint(rf, scratch, 0);

    // Executed loads whose value is still undetermined (a value
    // cycle): try each seed value for the whole set, every attempt
    // starting over from this unseeded fixpoint, and keep the first
    // consistent one.
    bool undetermined = false;
    for (size_t i = 0; i < _loadSites.size(); ++i) {
        const Site &sv = scratch.sites[site(_loadSites[i].first,
                                            _loadSites[i].second)];
        if ((sv.known & Executed) && !(sv.known & KnownData)) {
            scratch.seeded[i] = 1;
            undetermined = true;
        }
    }
    if (undetermined && !_options.seedValues.empty()) {
        scratch.unseeded = scratch.sites;
        bool resolved = false;
        for (Value seed : _options.seedValues) {
            scratch.sites = scratch.unseeded;
            runFixpoint(rf, scratch, seed);
            if (loadsConsistent(rf, scratch.sites)) {
                resolved = true;
                break;
            }
        }
        if (!resolved)
            return false;
    }

    // Final validation and trace construction.
    if (!commitTraces(rf, scratch))
        return false;

    // rf validity: executed loads read executed same-address stores;
    // unexecuted loads must use the canonical InitStore choice.
    const std::vector<Site> &sites = scratch.sites;
    for (size_t i = 0; i < _loadSites.size(); ++i) {
        auto [tid, idx] = _loadSites[i];
        const Site &sv = sites[site(tid, idx)];
        if (!(sv.known & Executed)) {
            if (rf[i] != InitStore)
                return false; // canonical duplicate
            continue;
        }
        if (rf[i] == InitStore) {
            // (Relevant after seeding:) the load's value must really be
            // the initial memory value of its address.
            if (sv.data != initialMemValue(_test.initialMem, sv.addr))
                return false;
            continue;
        }
        auto [stid, sidx] = storeIdParts(rf[i]);
        const Site &ss = sites[site(stid, sidx)];
        if (!(ss.known & Executed) || !(ss.known & KnownAddr)
            || ss.addr != sv.addr)
            return false;
        auto supplied = suppliedValue(rf[i], sites);
        if (!supplied || *supplied != sv.data)
            return false;
    }
    return true;
}

// -------------------------------------------------- CandidateEnumerator

void
CoOrder::assign(const std::vector<CandidateEvent> &events)
{
    _addrs.clear();
    for (const CandidateEvent &ev : events)
        if (ev.isStore && indexOf(ev.addr) < 0)
            _addrs.insert(std::upper_bound(_addrs.begin(), _addrs.end(),
                                           ev.addr),
                          ev.addr);
    _begin.assign(_addrs.size() + 1, 0);
    for (const CandidateEvent &ev : events)
        if (ev.isStore)
            ++_begin[size_t(indexOf(ev.addr)) + 1];
    for (size_t i = 0; i < _addrs.size(); ++i)
        _begin[i + 1] += _begin[i];
    _stores.resize(_begin.back());
    _order.resize(_begin.back());
    // _len doubles as the fill cursor, then every order starts empty.
    _len.assign(_addrs.size(), 0);
    for (size_t v = 0; v < events.size(); ++v) {
        if (events[v].isStore) {
            const size_t i = size_t(indexOf(events[v].addr));
            _stores[_begin[i] + _len[i]++] = int(v);
        }
    }
    std::fill(_len.begin(), _len.end(), 0);
}

std::span<int>
CoOrder::placeAll(size_t i)
{
    const std::span<const int> all = stores(i);
    std::copy(all.begin(), all.end(), _order.begin() + _begin[i]);
    _len[i] = uint32_t(all.size());
    return {_order.data() + _begin[i], all.size()};
}

/**
 * What every walk carries from one rf candidate to the next: the
 * builder's scratch and the tables derived from its result, all reused
 * across the rf stream so a warm walk allocates nothing per rf map.
 */
struct CandidateEnumerator::Walk
{
    CandidateBuilder::Scratch scratch{};
    uint64_t rfEpoch = 0;
    /** The scratch shape epoch the per-shape tables were built for. */
    uint64_t shape = 0;
    bool anyShape = false;

    // Per rf epoch.
    std::vector<CandidateEvent> events{};
    // Per shape.
    std::vector<const model::Trace *> traces{};
    /** Store sets per address; the orders grow during the search. */
    CoOrder coOrder{};
    /** Leaves under a whole address suffix: suffixLeaves[i] =
     *  prod_{j >= i} |stores(j)|! (suffixLeaves[naddrs] = 1). */
    std::vector<uint64_t> suffixLeaves{};
    /** Unplaced stores per address, in coOrder's slot layout; the
     *  search restores them (and coOrder) on the way back up. */
    std::vector<int> remaining{};
    std::vector<uint32_t> remainingLen{};
    uint64_t placedTotal = 0;

    CandidateExecution
    candidate(bool complete) const
    {
        return {events, coOrder, traces, rfEpoch, scratch.shapeEpoch,
                complete};
    }
};

/** Everything one worker carries through its share of the search. */
struct CandidateEnumerator::SearchCtx
{
    IncrementalFilter &filter;
    litmus::OutcomeSet &outcomes;
    CheckerStats &stats;
    const litmus::LitmusTest &test;
    Walk walk{};
};

CandidateEnumerator::CandidateEnumerator(const litmus::LitmusTest &test,
                                         Options options)
    : _builder(test, std::move(options))
{
}

void
collectCandidateEvents(
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    std::vector<CandidateEvent> &out)
{
    out.clear();
    for (size_t tid = 0; tid < exec.size(); ++tid) {
        const auto &te = exec[tid];
        for (size_t k = 0; k < te.trace.size(); ++k) {
            const auto &ti = te.trace[k];
            if (!ti.isMem())
                continue;
            CandidateEvent ev;
            ev.tid = int(tid);
            ev.traceIdx = int(k);
            ev.isStore = ti.isStore();
            ev.isLoad = ti.isLoad();
            ev.addr = ti.addr;
            ev.value = ti.instr.isRmw() ? ti.rmwStored : ti.value;
            ev.sid = ti.isStore()
                ? storeId(int(tid), te.executedIdx[k]) : InitStore;
            ev.rf = ti.isLoad() ? te.rfTrace[k] : InitStore;
            out.push_back(ev);
        }
    }
    for (CandidateEvent &ld : out) {
        if (!ld.isLoad || ld.rf == InitStore)
            continue;
        for (size_t s = 0; s < out.size(); ++s)
            if (out[s].isStore && out[s].sid == ld.rf)
                ld.rfEvent = int(s);
        GAM_ASSERT(ld.rfEvent >= 0, "rf store missing");
    }
}

namespace
{

/** The observable outcome of one complete candidate. */
litmus::Outcome
candidateOutcome(const litmus::LitmusTest &test,
                 const std::vector<CandidateBuilder::ThreadExec> &exec,
                 const std::vector<CandidateEvent> &events,
                 const CoOrder &coOrder)
{
    litmus::Outcome outcome;
    for (auto [tid, reg] : test.observedRegs) {
        auto v = exec[size_t(tid)].regs[size_t(reg)];
        GAM_ASSERT(v.has_value(), "unresolved observed register");
        outcome.regs.push_back({tid, reg, *v});
    }
    for (Addr a : test.addressUniverse) {
        Value v = initialMemValue(test.initialMem, a);
        const std::span<const int> order = coOrder.of(a);
        if (!order.empty())
            v = events[size_t(order.back())].value;
        outcome.mem.push_back({a, v});
    }
    outcome.canonicalize();
    return outcome;
}

} // anonymous namespace

void
recordCandidateOutcome(
    const litmus::LitmusTest &test,
    const std::vector<CandidateBuilder::ThreadExec> &exec,
    const std::vector<CandidateEvent> &events, const CoOrder &coOrder,
    litmus::OutcomeSet &outcomes)
{
    outcomes.insert(candidateOutcome(test, exec, events, coOrder));
}

void
CandidateEnumerator::prepareEpoch(Walk &walk, CheckerStats &stats) const
{
    collectCandidateEvents(walk.scratch.exec, walk.events);
    walk.placedTotal = 0;
    if (walk.anyShape && walk.shape == walk.scratch.shapeEpoch)
        return;
    walk.anyShape = true;
    walk.shape = walk.scratch.shapeEpoch;
    ++stats.shapeChanges;

    walk.traces.clear();
    for (const auto &te : walk.scratch.exec)
        walk.traces.push_back(&te.trace);
    CoOrder &co = walk.coOrder;
    co.assign(walk.events);
    walk.suffixLeaves.assign(co.size() + 1, 1);
    for (size_t i = co.size(); i-- > 0;)
        walk.suffixLeaves[i] = satMul(walk.suffixLeaves[i + 1],
                                      satFactorial(co.stores(i).size()));
    walk.remaining.resize(co.slots());
    walk.remainingLen.resize(co.size());
    for (size_t i = 0; i < co.size(); ++i) {
        const std::span<const int> stores = co.stores(i);
        std::copy(stores.begin(), stores.end(),
                  walk.remaining.begin() + std::ptrdiff_t(co.slot(i)));
        walk.remainingLen[i] = uint32_t(stores.size());
    }
}

namespace
{

/**
 * Visit each unplaced store of address @p ai in turn: take it out of
 * the remaining list, append it to the coherence order, call
 * @p visit(event, storesLeft), then put both back.  The lists are
 * restored exactly, so siblings and later epochs see them unchanged.
 */
template <typename Walk, typename Visit>
void
forEachNextStore(Walk &walk, size_t ai, Visit &&visit)
{
    int *rem = walk.remaining.data() + walk.coOrder.slot(ai);
    uint32_t &len = walk.remainingLen[ai];
    for (uint32_t k = 0; k < len; ++k) {
        const int v = rem[k];
        std::copy(rem + k + 1, rem + len, rem + k);
        --len;
        walk.coOrder.push(ai, v);
        ++walk.placedTotal;
        visit(v, len);
        --walk.placedTotal;
        walk.coOrder.pop(ai);
        std::copy_backward(rem + k, rem + len, rem + len + 1);
        rem[k] = v;
        ++len;
    }
}

} // anonymous namespace

void
CandidateEnumerator::searchCoherence(SearchCtx &ctx) const
{
    Walk &w = ctx.walk;
    prepareEpoch(w, ctx.stats);
    const CandidateExecution partial = w.candidate(/*complete=*/false);

    if (!ctx.filter.beginRf(partial)) {
        ++ctx.stats.rfPruned;
        ctx.stats.subtreesSkipped =
            satAdd(ctx.stats.subtreesSkipped, w.suffixLeaves[0]);
        return;
    }

    // ---- Depth-first coherence construction with backtracking:
    // extend one address's order a store at a time, let the filter
    // veto the subtree, move to the next address when exhausted. ----
    descendCoherence(ctx, 0, partial);
}

void
CandidateEnumerator::recordOutcome(SearchCtx &ctx) const
{
    ++ctx.stats.accepted;
    recordCandidateOutcome(ctx.test, ctx.walk.scratch.exec,
                           ctx.walk.events, ctx.walk.coOrder,
                           ctx.outcomes);
}

void
CandidateEnumerator::descendCoherence(
    SearchCtx &ctx, size_t ai, const CandidateExecution &partial) const
{
    Walk &w = ctx.walk;
    if (ai == w.coOrder.size()) {
        ++ctx.stats.coCandidates;
        if (ctx.filter.accept(w.candidate(/*complete=*/true)))
            recordOutcome(ctx);
        return;
    }
    if (w.remainingLen[ai] == 0) {
        descendCoherence(ctx, ai + 1, partial);
        return;
    }
    const Addr a = w.coOrder.addr(ai);
    forEachNextStore(w, ai, [&](int v, size_t left) {
        if (ctx.filter.pushStore(partial, a, v)) {
            descendCoherence(ctx, ai, partial);
        } else {
            ++ctx.stats.partialsPruned;
            ctx.stats.subtreesSkipped = satAdd(
                ctx.stats.subtreesSkipped,
                satMul(satFactorial(left), w.suffixLeaves[ai + 1]));
            ctx.stats.maxBacktrackDepth =
                std::max(ctx.stats.maxBacktrackDepth, w.placedTotal);
        }
        ctx.filter.popStore(partial, a, v);
    });
}

void
CandidateEnumerator::searchRfRange(size_t prefixLoads,
                                   uint64_t prefixIndex,
                                   IncrementalFilter &filter,
                                   litmus::OutcomeSet &outcomes,
                                   CheckerStats &stats) const
{
    const auto &choices = _builder.rfChoices();
    const size_t nloads = choices.size();

    std::vector<size_t> odo(nloads, 0);
    uint64_t rem = prefixIndex;
    for (size_t i = 0; i < prefixLoads; ++i) {
        odo[i] = size_t(rem % choices[i].size());
        rem /= choices[i].size();
    }

    std::vector<StoreId> rf(nloads, InitStore);
    // One context for the whole range: the builder scratch and the
    // per-epoch tables are reused across its rf maps (in a serial
    // search, the millions of a campaign test).
    SearchCtx ctx{.filter = filter,
                  .outcomes = outcomes,
                  .stats = stats,
                  .test = _builder.test()};
    GAM_TRACE_SCOPE("enum.search");
    for (;;) {
        for (size_t i = 0; i < nloads; ++i)
            rf[i] = choices[i][odo[i]];

        ++stats.rfCandidates;
        ++ctx.walk.rfEpoch;
        if (_builder.computeExecution(rf, ctx.walk.scratch)) {
            ++stats.valueConsistent;
            // The coherence-growth phase of this rf epoch: one span
            // per value-consistent rf map (tracing-disabled cost is a
            // relaxed load, far below the search work it brackets).
            obs::TraceSpan coSpan("enum.co_search");
            searchCoherence(ctx);
        } else {
            ++stats.valueCycles;
        }

        // Advance the odometer over the non-prefix loads.
        size_t pos = prefixLoads;
        while (pos < nloads) {
            if (++odo[pos] < choices[pos].size())
                break;
            odo[pos] = 0;
            ++pos;
        }
        if (pos == nloads)
            break;
    }
}

namespace
{

/**
 * Mirror one finished enumeration's counters into the global registry
 * (references cached: registration locks, increments are relaxed).
 */
void
reportEnumMetrics(const CheckerStats &s)
{
    static struct
    {
        obs::Counter &rfCandidates =
            obs::metrics().counter("enum.rf_candidates");
        obs::Counter &valueConsistent =
            obs::metrics().counter("enum.value_consistent");
        obs::Counter &coCandidates =
            obs::metrics().counter("enum.co_candidates");
        obs::Counter &accepted = obs::metrics().counter("enum.accepted");
        obs::Counter &partialsPruned =
            obs::metrics().counter("enum.partials_pruned");
        obs::Counter &shapeChanges =
            obs::metrics().counter("enum.shape_changes");
        obs::Counter &runs = obs::metrics().counter("enum.runs");
    } m;
    m.rfCandidates.inc(s.rfCandidates);
    m.valueConsistent.inc(s.valueConsistent);
    m.coCandidates.inc(s.coCandidates);
    m.accepted.inc(s.accepted);
    m.partialsPruned.inc(s.partialsPruned);
    m.shapeChanges.inc(s.shapeChanges);
    m.runs.inc();
}

} // anonymous namespace

litmus::OutcomeSet
CandidateEnumerator::run(const FilterFactory &factory)
{
    GAM_TRACE_SCOPE("enum.run");
    _stats = CheckerStats{};
    _stats.rfStaticSkipped = _builder.rfStaticSkipped();

    const auto &choices = _builder.rfChoices();
    unsigned threads = _builder.options().searchThreads;
    if (threads == 0)
        threads = ThreadPool::defaultThreadCount();

    // Split the search over leading read-from assignments: enough
    // top-level prefixes to keep the pool busy, but no more (every
    // prefix pays its own value-fixpoint runs).
    size_t prefixLoads = 0;
    uint64_t combos = 1;
    if (threads > 1) {
        while (prefixLoads < choices.size()
               && combos < uint64_t(threads) * 4) {
            combos = satMul(combos, choices[prefixLoads].size());
            ++prefixLoads;
        }
    }

    litmus::OutcomeSet outcomes;
    if (combos <= 1 || threads <= 1) {
        auto filter = factory();
        GAM_ASSERT(filter != nullptr, "null incremental filter");
        searchRfRange(0, 0, *filter, outcomes, _stats);
        reportEnumMetrics(_stats);
        return outcomes;
    }

    std::vector<litmus::OutcomeSet> sets(combos);
    std::vector<CheckerStats> stats(combos);
    ThreadPool pool(threads);
    pool.parallelFor(size_t(combos), [&](size_t i) {
        auto filter = factory();
        GAM_ASSERT(filter != nullptr, "null incremental filter");
        searchRfRange(prefixLoads, i, *filter, sets[i], stats[i]);
    });
    // Deterministic merge in prefix order (outcome sets are unordered,
    // but the counters must not depend on scheduling either).
    for (uint64_t i = 0; i < combos; ++i) {
        for (const auto &o : sets[i])
            outcomes.insert(o);
        _stats.merge(stats[i]);
    }
    reportEnumMetrics(_stats);
    return outcomes;
}

// ------------------------------------------------ multi-filter search
//
// One walk, N filters.  Each filter keeps a dormancy depth: -1 while
// live, the placedTotal of the push it vetoed otherwise (0 for a
// beginRf veto, which never revives mid-candidate).  A dormant filter
// sees no callbacks until the walk unwinds to its veto depth, where it
// receives the matching popStore and rejoins -- exactly the callback
// sequence its solo pruned search would have produced, which is what
// makes per-lane outcomes and counters identical to N run() calls.

/** Everything one runMulti() pass carries through the walk. */
struct CandidateEnumerator::MultiCtx
{
    std::vector<IncrementalFilter *> filters;
    std::vector<litmus::OutcomeSet> *outcomes;
    std::vector<CheckerStats> *lanes;
    /** Shared-walk counters (rf stream, fixpoint, leaves reached). */
    CheckerStats stats{};
    /** Dormancy depth per filter; -1 = live (see above). */
    std::vector<int64_t> dormantAt;
    const litmus::LitmusTest &test;
    Walk walk{};
};

void
CandidateEnumerator::descendCoherenceMulti(
    MultiCtx &ctx, size_t ai, const CandidateExecution &partial) const
{
    Walk &w = ctx.walk;
    const size_t nlanes = ctx.filters.size();
    if (ai == w.coOrder.size()) {
        ++ctx.stats.coCandidates;
        const CandidateExecution complete = w.candidate(/*complete=*/true);
        // The leaf's outcome is the same for every lane: build it once.
        std::optional<litmus::Outcome> outcome;
        for (size_t i = 0; i < nlanes; ++i) {
            if (ctx.dormantAt[i] >= 0)
                continue;
            CheckerStats &lane = (*ctx.lanes)[i];
            ++lane.coCandidates;
            if (ctx.filters[i]->accept(complete)) {
                ++lane.accepted;
                if (!outcome)
                    outcome = candidateOutcome(ctx.test, w.scratch.exec,
                                               w.events, w.coOrder);
                (*ctx.outcomes)[i].insert(*outcome);
            }
        }
        return;
    }
    if (w.remainingLen[ai] == 0) {
        descendCoherenceMulti(ctx, ai + 1, partial);
        return;
    }
    const Addr a = w.coOrder.addr(ai);
    forEachNextStore(w, ai, [&](int v, size_t left) {
        size_t live = 0;
        for (size_t i = 0; i < nlanes; ++i) {
            if (ctx.dormantAt[i] >= 0)
                continue;
            if (ctx.filters[i]->pushStore(partial, a, v)) {
                ++live;
                continue;
            }
            // This lane's subtree accounting is exactly the solo
            // run's; the walk itself descends only for the others.
            ctx.dormantAt[i] = int64_t(w.placedTotal);
            CheckerStats &lane = (*ctx.lanes)[i];
            ++lane.partialsPruned;
            lane.subtreesSkipped = satAdd(
                lane.subtreesSkipped,
                satMul(satFactorial(left), w.suffixLeaves[ai + 1]));
            lane.maxBacktrackDepth =
                std::max(lane.maxBacktrackDepth, w.placedTotal);
        }
        if (live > 0)
            descendCoherenceMulti(ctx, ai, partial);
        for (size_t i = 0; i < nlanes; ++i) {
            if (ctx.dormantAt[i] < 0) {
                ctx.filters[i]->popStore(partial, a, v);
            } else if (ctx.dormantAt[i] == int64_t(w.placedTotal)) {
                // Vetoed at exactly this push: the filter contract
                // still delivers the matching popStore, and the lane
                // rejoins the walk at the next sibling.
                ctx.filters[i]->popStore(partial, a, v);
                ctx.dormantAt[i] = -1;
            }
        }
    });
}

void
CandidateEnumerator::searchCoherenceMulti(MultiCtx &ctx) const
{
    Walk &w = ctx.walk;
    prepareEpoch(w, ctx.stats);
    const CandidateExecution partial = w.candidate(/*complete=*/false);
    size_t live = 0;
    for (size_t i = 0; i < ctx.filters.size(); ++i) {
        if (ctx.filters[i]->beginRf(partial)) {
            ctx.dormantAt[i] = -1;
            ++live;
        } else {
            ctx.dormantAt[i] = 0; // out for this whole rf candidate
            CheckerStats &lane = (*ctx.lanes)[i];
            ++lane.rfPruned;
            lane.subtreesSkipped =
                satAdd(lane.subtreesSkipped, w.suffixLeaves[0]);
        }
    }
    if (live > 0)
        descendCoherenceMulti(ctx, 0, partial);
}

void
CandidateEnumerator::searchRfRangeMulti(MultiCtx &ctx) const
{
    const auto &choices = _builder.rfChoices();
    const size_t nloads = choices.size();

    std::vector<size_t> odo(nloads, 0);
    std::vector<StoreId> rf(nloads, InitStore);
    GAM_TRACE_SCOPE("enum.search");
    for (;;) {
        for (size_t i = 0; i < nloads; ++i)
            rf[i] = choices[i][odo[i]];

        ++ctx.stats.rfCandidates;
        ++ctx.walk.rfEpoch;
        if (_builder.computeExecution(rf, ctx.walk.scratch)) {
            ++ctx.stats.valueConsistent;
            obs::TraceSpan coSpan("enum.co_search");
            searchCoherenceMulti(ctx);
        } else {
            ++ctx.stats.valueCycles;
        }

        size_t pos = 0;
        while (pos < nloads) {
            if (++odo[pos] < choices[pos].size())
                break;
            odo[pos] = 0;
            ++pos;
        }
        if (pos == nloads)
            break;
    }
}

std::vector<litmus::OutcomeSet>
CandidateEnumerator::runMulti(const std::vector<FilterFactory> &factories,
                              std::vector<CheckerStats> *laneStats)
{
    GAM_TRACE_SCOPE("enum.run");
    _stats = CheckerStats{};
    _stats.rfStaticSkipped = _builder.rfStaticSkipped();

    std::vector<litmus::OutcomeSet> outcomes(factories.size());
    if (factories.empty()) {
        if (laneStats)
            laneStats->clear();
        return outcomes;
    }

    std::vector<std::unique_ptr<IncrementalFilter>> owned;
    std::vector<IncrementalFilter *> filters;
    for (const FilterFactory &f : factories) {
        GAM_ASSERT(f != nullptr, "runMulti: null factory");
        owned.push_back(f());
        GAM_ASSERT(owned.back() != nullptr, "null incremental filter");
        filters.push_back(owned.back().get());
    }

    std::vector<CheckerStats> lanes(factories.size());
    MultiCtx ctx{
        .filters = std::move(filters),
        .outcomes = &outcomes,
        .lanes = &lanes,
        .dormantAt = std::vector<int64_t>(factories.size(), -1),
        .test = _builder.test()};
    searchRfRangeMulti(ctx);

    // Each lane's counters are exactly what a solo serial run() with
    // its filter would report: the walk counters are common to every
    // lane by construction, the pruning counters were kept per lane.
    for (CheckerStats &lane : lanes) {
        lane.rfCandidates = ctx.stats.rfCandidates;
        lane.valueConsistent = ctx.stats.valueConsistent;
        lane.valueCycles = ctx.stats.valueCycles;
        lane.shapeChanges = ctx.stats.shapeChanges;
        lane.rfStaticSkipped = _stats.rfStaticSkipped;
    }

    // stats() describes the pass itself: the one shared walk, plus
    // every lane's pruning and acceptance totals.
    _stats.rfCandidates = ctx.stats.rfCandidates;
    _stats.valueConsistent = ctx.stats.valueConsistent;
    _stats.valueCycles = ctx.stats.valueCycles;
    _stats.shapeChanges = ctx.stats.shapeChanges;
    _stats.coCandidates = ctx.stats.coCandidates;
    for (const CheckerStats &lane : lanes) {
        _stats.rfPruned += lane.rfPruned;
        _stats.partialsPruned += lane.partialsPruned;
        _stats.subtreesSkipped =
            satAdd(_stats.subtreesSkipped, lane.subtreesSkipped);
        _stats.accepted += lane.accepted;
        _stats.maxBacktrackDepth = std::max(_stats.maxBacktrackDepth,
                                            lane.maxBacktrackDepth);
    }
    reportEnumMetrics(_stats);

    if (laneStats)
        *laneStats = std::move(lanes);
    return outcomes;
}

namespace
{

/** Adapts a plain CandidateFilter: no pruning, exact leaves. */
class AllCandidates final : public IncrementalFilter
{
  public:
    explicit AllCandidates(const CandidateFilter &accept)
        : _accept(accept)
    {}

    bool
    accept(const CandidateExecution &candidate) override
    {
        return _accept(candidate);
    }

  private:
    const CandidateFilter &_accept;
};

} // anonymous namespace

litmus::OutcomeSet
CandidateEnumerator::runAll(const CandidateFilter &accept)
{
    GAM_ASSERT(accept != nullptr, "runAll: null filter");
    // A plain filter is stateful across calls (epoch caching), so the
    // unpruned stream is always walked serially by one adapter.
    _stats = CheckerStats{};
    _stats.rfStaticSkipped = _builder.rfStaticSkipped();
    litmus::OutcomeSet outcomes;
    AllCandidates filter(accept);
    searchRfRange(0, 0, filter, outcomes, _stats);
    reportEnumMetrics(_stats);
    return outcomes;
}

} // namespace gam::axiomatic
