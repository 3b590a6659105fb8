/**
 * @file
 * Instruction word representation.
 *
 * Instructions are held decoded.  Every instruction occupies one slot in
 * the program; the program counter is an instruction index.  Each
 * instruction corresponds to one 64-bit word in the modeled machine
 * encoding (the paper relies on CUDA's 64-bit alignment to host 54-bit
 * release-flag payloads next to a 10-bit opcode).
 */
#ifndef RFV_ISA_INSTRUCTION_H
#define RFV_ISA_INSTRUCTION_H

#include <string>

#include "common/types.h"
#include "isa/opcode.h"

namespace rfv {

/** Special (read-only) registers exposed via s2r. */
enum class SpecialReg : u8 {
    kTid,      //!< thread id within the CTA
    kCtaId,    //!< CTA id within the grid
    kNTid,     //!< threads per CTA
    kNCtaId,   //!< CTAs in the grid
    kLaneId,   //!< lane within the warp
    kWarpId,   //!< warp id within the CTA
};

/** Comparison operators for setp. */
enum class CmpOp : u8 { kEq, kNe, kLt, kLe, kGt, kGe };

/** A source operand: nothing, a register, or a 32-bit immediate. */
struct Operand {
    enum class Kind : u8 { kNone, kReg, kImm };

    Kind kind = Kind::kNone;
    u32 value = 0; //!< register id, or immediate value

    static Operand none() { return {}; }
    static Operand reg(u32 r) { return {Kind::kReg, r}; }
    static Operand imm(u32 v) { return {Kind::kImm, v}; }

    bool isReg() const { return kind == Kind::kReg; }
    bool isImm() const { return kind == Kind::kImm; }
    bool isNone() const { return kind == Kind::kNone; }

    bool
    operator==(const Operand &o) const
    {
        return kind == o.kind && (isNone() || value == o.value);
    }
};

/**
 * One decoded instruction.
 *
 * Operand conventions:
 *  - ALU ops: dst, src[0..2].
 *  - setp:    dstPred, src[0], src[1], cmp.
 *  - psel:    dst = dstPred ? src[0] : src[1]; dstPred is *read* as the
 *             selector (it is not written).
 *  - ldg/lds: dst, src[0] = address register, src[1] = immediate offset.
 *  - stg/sts: src[0] = address register, src[1] = immediate offset,
 *             src[2] = value register.
 *  - ldl/stl: localSlot = per-thread spill slot index; stl value in src[0].
 *  - bra:     target (+ reconvPc filled by the compiler); optional guard.
 *  - pir/pbr: metaPayload holds the 54-bit flag payload.
 */
struct Instr {
    Opcode op = Opcode::kNop;

    i32 dst = kNoReg;     //!< destination register, kNoReg if none
    Operand src[3];       //!< source operands

    i32 dstPred = kNoPred;   //!< setp destination predicate
    i32 guardPred = kNoPred; //!< @p / @!p execution guard
    bool guardNeg = false;   //!< guard is negated (@!p)
    CmpOp cmp = CmpOp::kEq;  //!< setp comparison
    SpecialReg sreg = SpecialReg::kTid; //!< s2r source

    u32 target = kInvalidPc;   //!< branch target (instruction index)
    u32 reconvPc = kInvalidPc; //!< reconvergence pc for divergent branches
    u32 localSlot = 0;         //!< ldl/stl per-thread slot index

    u64 metaPayload = 0; //!< 54-bit pir/pbr payload (encoded)

    /**
     * Authoritative per-source release bits, filled by the compiler's
     * lifetime analysis.  Bit i set means src[i]'s register dies after
     * this instruction reads it.  The in-stream kPir instructions carry
     * the same information in machine-encoded form for the fetch-cost
     * and cache modeling; encode/decode consistency is enforced by
     * Program::validate().
     */
    u8 pirMask = 0;

    /** Unresolved branch-target label (builder/assembler only). */
    std::string pendingLabel;

    /** True if this instruction reads register @p r as a source. */
    bool
    readsReg(u32 r) const
    {
        for (const auto &s : src)
            if (s.isReg() && s.value == r)
                return true;
        return false;
    }

    /** True if this instruction writes register @p r. */
    bool
    writesReg(u32 r) const
    {
        return dst != kNoReg && static_cast<u32>(dst) == r;
    }
};

/** Render one instruction as assembly text (without trailing newline). */
std::string formatInstr(const Instr &ins);

/** Parse helpers shared by the assembler. */
const char *cmpName(CmpOp c);
const char *specialRegName(SpecialReg s);

} // namespace rfv

#endif // RFV_ISA_INSTRUCTION_H
