/**
 * @file
 * Opcode enumeration and static opcode traits for the SASS-like ISA.
 *
 * The ISA mirrors the structural properties the paper depends on:
 * at most three register source operands per instruction (so 3 release
 * bits per instruction suffice), 6-bit architected register ids (up to
 * 63 registers per thread), predicate-guarded branches, and 64-bit
 * aligned instruction words that leave room for metadata instructions.
 */
#ifndef RFV_ISA_OPCODE_H
#define RFV_ISA_OPCODE_H

#include <string_view>

#include "common/types.h"

namespace rfv {

/** All operations in the ISA. */
enum class Opcode : u8 {
    kNop,
    // Integer arithmetic / logic.
    kMov,
    kIAdd,
    kISub,
    kIMul,
    kIMad,
    kIMin,
    kIMax,
    kShl,
    kShr,
    kAnd,
    kOr,
    kXor,
    // Floating point (operands are bit-cast IEEE-754 singles).
    kFAdd,
    kFMul,
    kFFma,
    kFRcp,
    // Predicates.
    kSetP, //!< dstPred = cmp(src0, src1)
    kPSel, //!< dst = guardPred ? src0 : src1 (predicate-select)
    // Special register read.
    kS2R,
    // Memory.
    kLdGlobal,
    kStGlobal,
    kLdShared,
    kStShared,
    kLdLocal, //!< per-thread local slot (spill space)
    kStLocal,
    kAtomAdd, //!< global atomic add; dst receives the old value
    // Control.
    kBra,
    kExit,
    kBar,
    // Compiler-generated metadata (release flags, Section 6.2).
    kPir, //!< per-instruction release flags for the next 18 instructions
    kPbr, //!< per-branch release flags at a reconvergence point
};

/** Coarse functional-unit / latency class of an opcode. */
enum class OpClass : u8 {
    kAlu,       //!< simple integer ops
    kMul,       //!< integer multiply / multiply-add
    kFpu,       //!< single-precision FP
    kSfu,       //!< special function (reciprocal)
    kMemGlobal, //!< global memory access
    kMemShared, //!< shared memory access
    kMemLocal,  //!< local (per-thread) memory access
    kControl,   //!< branch / exit / barrier
    kMeta,      //!< metadata, never issued to an execution unit
};

/** Static properties of an opcode. */
struct OpInfo {
    std::string_view mnemonic;
    OpClass cls;
    u8 numSrcRegsMax; //!< maximum register source operands
    bool hasDst;      //!< writes a general-purpose destination register
};

/** Trait lookup; total for every opcode. */
const OpInfo &opInfo(Opcode op);

/** Mnemonic string for an opcode. */
std::string_view opName(Opcode op);

inline bool
isMemory(Opcode op)
{
    const OpClass c = opInfo(op).cls;
    return c == OpClass::kMemGlobal || c == OpClass::kMemShared ||
           c == OpClass::kMemLocal;
}

inline bool
isLoad(Opcode op)
{
    return op == Opcode::kLdGlobal || op == Opcode::kLdShared ||
           op == Opcode::kLdLocal;
}

inline bool
isStore(Opcode op)
{
    return op == Opcode::kStGlobal || op == Opcode::kStShared ||
           op == Opcode::kStLocal;
}

inline bool
isMeta(Opcode op)
{
    return op == Opcode::kPir || op == Opcode::kPbr;
}

inline bool
isBranch(Opcode op)
{
    return op == Opcode::kBra;
}

/** True if the op ends a basic block (branch or exit). */
inline bool
endsBlock(Opcode op)
{
    return op == Opcode::kBra || op == Opcode::kExit;
}

} // namespace rfv

#endif // RFV_ISA_OPCODE_H
