/**
 * @file
 * Value semantics of the mini-ISA, shared by the functional emulator,
 * the abstract machines and the cycle simulator so that all execution
 * engines agree on every instruction's result.
 */

#ifndef GAM_ISA_SEMANTICS_HH
#define GAM_ISA_SEMANTICS_HH

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "base/logging.hh"
#include "isa/instruction.hh"
#include "isa/mem_image.hh"

namespace gam::isa
{

namespace detail
{

inline double toF(Value v) { return std::bit_cast<double>(v); }
inline Value fromF(double d) { return std::bit_cast<Value>(d); }

} // namespace detail

/**
 * Result of a reg-to-reg computation (including LI).
 * Division by zero yields 0 and INT64_MIN / -1 yields INT64_MIN, so all
 * programs have defined semantics.
 */
inline Value
evalRegToReg(const Instruction &instr, Value v1, Value v2)
{
    using detail::toF;
    using detail::fromF;
    const uint64_t u1 = static_cast<uint64_t>(v1);
    const uint64_t u2 = static_cast<uint64_t>(v2);
    const int64_t sh = v2 & 63;
    switch (instr.op) {
      case Opcode::ADD: return v1 + v2;
      case Opcode::SUB: return v1 - v2;
      case Opcode::MUL: return static_cast<Value>(u1 * u2);
      case Opcode::DIV:
        if (v2 == 0)
            return 0;
        if (v1 == std::numeric_limits<Value>::min() && v2 == -1)
            return v1;
        return v1 / v2;
      case Opcode::DIVU: return u2 ? static_cast<Value>(u1 / u2) : 0;
      case Opcode::REM:
        if (v2 == 0)
            return 0;
        if (v1 == std::numeric_limits<Value>::min() && v2 == -1)
            return 0;
        return v1 % v2;
      case Opcode::REMU: return u2 ? static_cast<Value>(u1 % u2) : 0;
      case Opcode::AND: return v1 & v2;
      case Opcode::OR: return v1 | v2;
      case Opcode::XOR: return v1 ^ v2;
      case Opcode::SLL: return static_cast<Value>(u1 << sh);
      case Opcode::SRL: return static_cast<Value>(u1 >> sh);
      case Opcode::SRA: return v1 >> sh;
      case Opcode::SLT: return v1 < v2 ? 1 : 0;
      case Opcode::SLTU: return u1 < u2 ? 1 : 0;
      case Opcode::ADDI: return v1 + instr.imm;
      case Opcode::ANDI: return v1 & instr.imm;
      case Opcode::ORI: return v1 | instr.imm;
      case Opcode::XORI: return v1 ^ instr.imm;
      case Opcode::SLLI: return static_cast<Value>(u1 << (instr.imm & 63));
      case Opcode::SRLI: return static_cast<Value>(u1 >> (instr.imm & 63));
      case Opcode::SRAI: return v1 >> (instr.imm & 63);
      case Opcode::SLTI: return v1 < instr.imm ? 1 : 0;
      case Opcode::LI: return instr.imm;
      case Opcode::FADD: return fromF(toF(v1) + toF(v2));
      case Opcode::FSUB: return fromF(toF(v1) - toF(v2));
      case Opcode::FMUL: return fromF(toF(v1) * toF(v2));
      case Opcode::FDIV: return fromF(toF(v1) / toF(v2));
      case Opcode::FSQRT:
        return fromF(std::sqrt(std::fabs(toF(v1))));
      case Opcode::FMIN: return fromF(std::fmin(toF(v1), toF(v2)));
      case Opcode::FMAX: return fromF(std::fmax(toF(v1), toF(v2)));
      case Opcode::FMOV: return v1;
      case Opcode::FCVT_I2F: return fromF(static_cast<double>(v1));
      case Opcode::FCVT_F2I: {
        double d = toF(v1);
        if (!std::isfinite(d))
            return 0;
        if (d >= 9.2233720368547758e18)
            return std::numeric_limits<Value>::max();
        if (d <= -9.2233720368547758e18)
            return std::numeric_limits<Value>::min();
        return static_cast<Value>(d);
      }
      default:
        panic("evalRegToReg: %s is not a reg-to-reg op",
              instr.toString().c_str());
    }
}

/** Branch direction for conditional branches. */
inline bool
evalBranchTaken(const Instruction &instr, Value v1, Value v2)
{
    switch (instr.op) {
      case Opcode::BEQ: return v1 == v2;
      case Opcode::BNE: return v1 != v2;
      case Opcode::BLT: return v1 < v2;
      case Opcode::BGE: return v1 >= v2;
      case Opcode::JMP: return true;
      default:
        panic("evalBranchTaken: %s is not a branch",
              instr.toString().c_str());
    }
}

/**
 * The value an RMW leaves in memory, given the value it loaded
 * (@p old_value) and its register operand (@p src2).
 */
inline Value
evalRmwStored(const Instruction &instr, Value old_value, Value src2)
{
    switch (instr.op) {
      case Opcode::AMOSWAP: return src2;
      case Opcode::AMOADD: return old_value + src2;
      default:
        panic("evalRmwStored: %s is not an RMW",
              instr.toString().c_str());
    }
}

/**
 * Does the value an RMW leaves in memory depend on the value it loaded?
 * AMOSWAP stores its operand whatever it read.
 */
inline bool
rmwStoredReadsOld(const Instruction &instr)
{
    return instr.op != Opcode::AMOSWAP;
}

/** Effective address of a memory instruction. */
inline Addr
effectiveAddr(const Instruction &instr, Value base)
{
    GAM_ASSERT(instr.isMem(), "effectiveAddr on non-memory instruction");
    return base + instr.imm;
}

} // namespace gam::isa

#endif // GAM_ISA_SEMANTICS_HH
