/**
 * Tests for the axiomatic checker: every paper-documented litmus
 * verdict, SC enumeration exactness, and the OOTA demonstration.
 */

#include <gtest/gtest.h>

#include <set>

#include "axiomatic/checker.hh"
#include "campaign/enumerate.hh"
#include "litmus/generator.hh"
#include "litmus/suite.hh"

namespace gam::axiomatic
{
namespace
{

using isa::R;
using litmus::LitmusTest;
using litmus::testByName;
using model::ModelKind;

/** Every litmus verdict the paper (or the model definitions) records. */
class AxiomaticVerdict : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AxiomaticVerdict, MatchesPaper)
{
    const LitmusTest &test = testByName(GetParam());
    for (const auto &[kind, expected] : test.expected) {
        if (kind == ModelKind::AlphaStar)
            continue; // no axiomatic definition (paper Section V-A)
        Checker checker(test, kind);
        EXPECT_EQ(checker.isAllowed(), expected)
            << test.name << " under " << model::modelName(kind);
    }
}

std::vector<std::string>
allTestNames()
{
    std::vector<std::string> names;
    for (const auto &t : litmus::allTests())
        names.push_back(t.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllLitmusTests, AxiomaticVerdict,
                         ::testing::ValuesIn(allTestNames()),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (!isalnum(uint8_t(c)))
                                     c = '_';
                             return name;
                         });

/** Project an outcome set onto two observed registers. */
std::set<std::pair<isa::Value, isa::Value>>
project(const litmus::OutcomeSet &outcomes, int tid1, isa::Reg r1,
        int tid2, isa::Reg r2)
{
    std::set<std::pair<isa::Value, isa::Value>> s;
    for (const auto &o : outcomes) {
        isa::Value v1 = 0, v2 = 0;
        for (const auto &ro : o.regs) {
            if (ro.tid == tid1 && ro.reg == r1)
                v1 = ro.value;
            if (ro.tid == tid2 && ro.reg == r2)
                v2 = ro.value;
        }
        s.insert({v1, v2});
    }
    return s;
}

TEST(AxiomaticEnumeration, DekkerUnderScIsExactlyThreeOutcomes)
{
    // Figure 2: SC allows (1,1), (0,1), (1,0) and forbids (0,0).
    Checker checker(testByName("dekker"), ModelKind::SC);
    auto outcomes = project(checker.enumerate(), 0, R(1), 1, R(2));
    std::set<std::pair<isa::Value, isa::Value>> want{
        {1, 1}, {0, 1}, {1, 0}};
    EXPECT_EQ(outcomes, want);
}

TEST(AxiomaticEnumeration, DekkerUnderGamAddsTheWeakOutcome)
{
    Checker checker(testByName("dekker"), ModelKind::GAM);
    auto outcomes = project(checker.enumerate(), 0, R(1), 1, R(2));
    std::set<std::pair<isa::Value, isa::Value>> want{
        {1, 1}, {0, 1}, {1, 0}, {0, 0}};
    EXPECT_EQ(outcomes, want);
}

TEST(AxiomaticEnumeration, CowwFinalMemory)
{
    // Both co orders of two same-thread same-address stores would be
    // enumerated, but SAMemSt forces program order: final value is 2.
    Checker checker(testByName("coww"), ModelKind::GAM);
    auto outcomes = checker.enumerate();
    ASSERT_EQ(outcomes.size(), 1u);
    for (const auto &m : outcomes.begin()->mem) {
        if (m.addr == litmus::LOC_A) {
            EXPECT_EQ(m.value, 2);
        }
    }
}

TEST(AxiomaticEnumeration, MpOutcomeCount)
{
    // MP without fences under GAM: all four (r1, r2) combinations.
    Checker checker(testByName("mp"), ModelKind::GAM);
    auto outcomes = project(checker.enumerate(), 1, R(1), 1, R(2));
    EXPECT_EQ(outcomes.size(), 4u);
}

TEST(AxiomaticEnumeration, MpFencedRemovesOnlyTheWeakOutcome)
{
    Checker checker(testByName("mp_fenced"), ModelKind::GAM);
    auto outcomes = project(checker.enumerate(), 1, R(1), 1, R(2));
    std::set<std::pair<isa::Value, isa::Value>> want{
        {0, 0}, {0, 1}, {1, 1}};
    EXPECT_EQ(outcomes, want);
}

TEST(AxiomaticOota, LoadValueAloneAdmitsOota)
{
    // Section II-C: dropping the instruction-order axiom (keeping only
    // LoadValue) makes the out-of-thin-air behavior legal.
    Options opts;
    opts.enforceInstOrder = false;
    Checker checker(testByName("oota"), ModelKind::GAM, opts);
    EXPECT_TRUE(checker.isAllowed());
}

TEST(AxiomaticOota, EverySeedIsTriedFromTheUnseededFixpoint)
{
    // T0: ld r1,[a]; st [b],r1   T1: ld r2,[b]; ori r3,r2,2; st [a],r3
    // with both loads reading the other thread's store: a value cycle
    // only the condition's constants (1 and 2) can seed.  Seed 1 is
    // inconsistent (a gets 1|2 = 3); seed 2 is a fixpoint (2|2 = 2).
    // Each seed must start over from the unseeded fixpoint: carrying
    // seed 1's state into the next attempt settled on 3, a value that
    // is neither a seed nor written by the program.
    using isa::ProgramBuilder;
    LitmusTest test = litmus::LitmusBuilder("seed_retry", "none")
        .location("a", litmus::LOC_A).location("b", litmus::LOC_B)
        .thread(ProgramBuilder()
                    .li(R(8), litmus::LOC_A).li(R(9), litmus::LOC_B)
                    .ld(R(1), R(8)).st(R(9), R(1))
                    .build())
        .thread(ProgramBuilder()
                    .li(R(8), litmus::LOC_A).li(R(9), litmus::LOC_B)
                    .ld(R(2), R(9))
                    .aluImm(isa::Opcode::ORI, R(3), R(2), 2)
                    .st(R(8), R(3))
                    .build())
        .requireReg(0, R(1), 1).requireReg(1, R(2), 2)
        .done();
    Options opts;
    opts.enforceInstOrder = false;
    opts = withConditionSeeds(test, opts);
    Checker pruned(test, ModelKind::GAM, opts);
    const litmus::OutcomeSet got = pruned.enumerate();
    EXPECT_EQ(litmus::toString(got),
              "0:r1=0 0:r8=4096 0:r9=4104 1:r2=0 1:r3=2 1:r8=4096 "
              "1:r9=4104 | [0x1000]=2 [0x1008]=0\n"
              "0:r1=2 0:r8=4096 0:r9=4104 1:r2=0 1:r3=2 1:r8=4096 "
              "1:r9=4104 | [0x1000]=2 [0x1008]=2\n"
              "0:r1=2 0:r8=4096 0:r9=4104 1:r2=2 1:r3=2 1:r8=4096 "
              "1:r9=4104 | [0x1000]=2 [0x1008]=2\n");
    EXPECT_FALSE(pruned.isAllowed());
    Checker legacy(test, ModelKind::GAM, opts);
    EXPECT_EQ(legacy.enumerateLegacy(), got);
}

/** LoadValue alone (no InstOrder), seeded with the condition's values. */
litmus::OutcomeSet
loadValueOnlyOutcomes(const LitmusTest &test)
{
    Options opts;
    opts.enforceInstOrder = false;
    opts = withConditionSeeds(test, opts);
    Checker pruned(test, ModelKind::GAM, opts);
    const litmus::OutcomeSet got = pruned.enumerate();
    Checker legacy(test, ModelKind::GAM, opts);
    EXPECT_EQ(legacy.enumerateLegacy(), got) << test.name;
    return got;
}

TEST(AxiomaticOota, ZeroingIdiomBreaksAValueCycle)
{
    // The campaign test camp_rfea_data_poa_coea: T1 loads a, stores
    // (r1 ^ r1) + 2 = 2 to a, then 3.  Its load may read its own
    // po-later store of 2 under LoadValue alone; that store's value is
    // 2 whatever the load returns, so no seed is needed to find
    // 1:r1=2.
    campaign::EnumerateOptions universe;
    universe.maxLen = 4;
    universe.canonical = campaign::CanonicalForm::Full;
    std::optional<LitmusTest> test;
    campaign::enumerateCycles(
        universe, [&](const campaign::CanonicalCycle &cycle) {
            if (cycle.name != "camp_rfea_data_poa_coea")
                return true;
            test = litmus::testFromCycle(cycle.name, cycle.edges,
                                         cycle.numLocations);
            return false;
        });
    ASSERT_TRUE(test.has_value());
    EXPECT_EQ(litmus::toString(loadValueOnlyOutcomes(*test)),
              "1:r1=0 | [0x1000]=1\n"
              "1:r1=0 | [0x1000]=2\n"
              "1:r1=0 | [0x1000]=3\n"
              "1:r1=1 | [0x1000]=1\n"
              "1:r1=1 | [0x1000]=2\n"
              "1:r1=1 | [0x1000]=3\n"
              "1:r1=2 | [0x1000]=1\n"
              "1:r1=2 | [0x1000]=2\n"
              "1:r1=2 | [0x1000]=3\n"
              "1:r1=3 | [0x1000]=1\n"
              "1:r1=3 | [0x1000]=2\n"
              "1:r1=3 | [0x1000]=3\n");
}

TEST(AxiomaticOota, SubtractingARegisterFromItselfBreaksAValueCycle)
{
    // T0: ld r1,[a]; sub r2,r1,r1; addi r3,r2,2; st [a],r3.  The load
    // may read the po-later store, whose value is 2 whatever it reads.
    using isa::ProgramBuilder;
    LitmusTest test = litmus::LitmusBuilder("sub_self", "none")
        .location("a", litmus::LOC_A)
        .thread(ProgramBuilder()
                    .li(R(8), litmus::LOC_A)
                    .ld(R(1), R(8))
                    .sub(R(2), R(1), R(1))
                    .addi(R(3), R(2), 2)
                    .st(R(8), R(3))
                    .build())
        .requireReg(0, R(1), 1)
        .done();
    EXPECT_EQ(litmus::toString(loadValueOnlyOutcomes(test)), "0:r1=0 0:r2=0 0:r3=2 0:r8=4096 | [0x1000]=2\n"
              "0:r1=2 0:r2=0 0:r3=2 0:r8=4096 | [0x1000]=2\n");
}

TEST(AxiomaticOota, SelfComparingBranchBreaksAValueCycle)
{
    // T0: ld r1,[a]; beq r1,r1,L; st [a],r9; L: li r2,2; st [a],r2.
    // Whether the store of 2 executes depends on a branch on r1, but
    // beq r1,r1 is taken whatever r1 holds, so the load may read that
    // po-later store without a seed.
    using isa::ProgramBuilder;
    LitmusTest test = litmus::LitmusBuilder("beq_self", "none")
        .location("a", litmus::LOC_A)
        .thread(ProgramBuilder()
                    .li(R(8), litmus::LOC_A)
                    .li(R(9), 5)
                    .ld(R(1), R(8))
                    .beq(R(1), R(1), "L")
                    .st(R(8), R(9))
                    .label("L")
                    .li(R(2), 2)
                    .st(R(8), R(2))
                    .build())
        .requireReg(0, R(1), 1)
        .done();
    EXPECT_EQ(litmus::toString(loadValueOnlyOutcomes(test)), "0:r1=0 0:r2=2 0:r8=4096 0:r9=5 | [0x1000]=2\n"
              "0:r1=2 0:r2=2 0:r8=4096 0:r9=5 | [0x1000]=2\n");
}

TEST(AxiomaticOota, SwapStoredValueBreaksAValueCycle)
{
    // T0: amoswap r1,[a],r5 (r5 = 1)   T1: ld r2,[a]; addi r3,r2,1;
    // st [a],r3.  With T1 reading the swap and the swap reading T1's
    // store, the values form a cycle, but a swap writes its operand
    // whatever it loads: r2 = 1, so the swap loads 2.
    using isa::ProgramBuilder;
    LitmusTest test = litmus::LitmusBuilder("swap_cycle", "none")
        .location("a", litmus::LOC_A)
        .thread(ProgramBuilder()
                    .li(R(8), litmus::LOC_A).li(R(5), 1)
                    .rmw(isa::Opcode::AMOSWAP, R(1), R(8), R(5))
                    .build())
        .thread(ProgramBuilder()
                    .li(R(8), litmus::LOC_A)
                    .ld(R(2), R(8))
                    .addi(R(3), R(2), 1)
                    .st(R(8), R(3))
                    .build())
        .requireReg(0, R(1), 3).requireReg(1, R(2), 3)
        .done();
    EXPECT_EQ(litmus::toString(loadValueOnlyOutcomes(test)), "0:r1=0 0:r5=1 0:r8=4096 1:r2=0 1:r3=1 1:r8=4096 | [0x1000]=1\n"
              "0:r1=0 0:r5=1 0:r8=4096 1:r2=1 1:r3=2 1:r8=4096 | [0x1000]=2\n"
              "0:r1=1 0:r5=1 0:r8=4096 1:r2=0 1:r3=1 1:r8=4096 | [0x1000]=1\n"
              "0:r1=2 0:r5=1 0:r8=4096 1:r2=1 1:r3=2 1:r8=4096 | [0x1000]=1\n");
}

TEST(AxiomaticOota, InstOrderRejectsOota)
{
    Checker checker(testByName("oota"), ModelKind::GAM);
    EXPECT_FALSE(checker.isAllowed());
    // The cyclic value candidates were actually considered.
    EXPECT_GT(checker.stats().rfCandidates, 0u);
}

TEST(AxiomaticStats, CountersAreConsistent)
{
    Checker checker(testByName("dekker"), ModelKind::GAM);
    checker.enumerate();
    const CheckerStats &s = checker.stats();
    EXPECT_GT(s.rfCandidates, 0u);
    EXPECT_GE(s.rfCandidates, s.valueConsistent);
    EXPECT_GE(s.coCandidates, s.accepted);
    EXPECT_GT(s.accepted, 0u);
}

TEST(AxiomaticChecker, PerLocScForbidsCoRR)
{
    Checker checker(testByName("corr"), ModelKind::PerLocSC);
    EXPECT_FALSE(checker.isAllowed());
}

TEST(AxiomaticChecker, PerLocScIgnoresFences)
{
    // mp_fenced is still allowed under per-location SC: fences order
    // nothing across addresses there.
    Checker checker(testByName("mp_fenced"), ModelKind::PerLocSC);
    EXPECT_TRUE(checker.isAllowed());
}

TEST(AxiomaticChecker, RejectsBackwardBranches)
{
    using isa::ProgramBuilder;
    litmus::LitmusTest t = litmus::LitmusBuilder("bad", "none")
        .location("a", 0x1000)
        .thread(ProgramBuilder()
                    .label("top")
                    .addi(R(1), R(1), 1)
                    .jmp("top")
                    .build())
        .requireReg(0, R(1), 1)
        .expect(ModelKind::GAM, false)
        .done();
    EXPECT_DEATH({ Checker c(t, ModelKind::GAM); }, "forward branches");
}

} // namespace
} // namespace gam::axiomatic
