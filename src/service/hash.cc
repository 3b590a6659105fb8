#include "service/hash.h"

#include <cstdio>

#include "core/simulator.h"

namespace rfv {

namespace {

inline u64
rotl(u64 v, int s)
{
    return (v << s) | (v >> (64 - s));
}

} // namespace

void
Hasher::bytes(const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        hi_ = (hi_ ^ p[i]) * 0x00000100000001B3ull;
        lo_ = rotl(lo_ ^ (p[i] * 0x9E3779B97F4A7C15ull), 23) *
              0xBF58476D1CE4E5B9ull;
    }
}

void
Hasher::f64v(double v)
{
    u64 bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    u64v(bits);
}

void
Hasher::str(const std::string &s)
{
    u64v(s.size());
    bytes(s.data(), s.size());
}

std::string
Hash128::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

Hash128
hashProgram(const Program &prog)
{
    Hasher h;
    h.u32v(prog.numRegs);
    h.u32v(prog.numExemptRegs);
    h.u32v(prog.sharedMemBytes);
    h.u32v(prog.localMemSlots);
    h.boolv(prog.hasReleaseMetadata);
    h.u64v(prog.code.size());
    for (const Instr &ins : prog.code) {
        h.enumv(ins.op);
        h.i32v(ins.dst);
        for (const Operand &s : ins.src) {
            h.enumv(s.kind);
            h.u32v(s.isNone() ? 0 : s.value);
        }
        h.i32v(ins.dstPred);
        h.i32v(ins.guardPred);
        h.boolv(ins.guardNeg);
        h.enumv(ins.cmp);
        h.enumv(ins.sreg);
        h.u32v(ins.target);
        h.u32v(ins.reconvPc);
        h.u32v(ins.localSlot);
        h.u64v(ins.metaPayload);
        h.u32v(ins.pirMask);
        // pendingLabel is builder-only scaffolding, never simulated.
    }
    return h.digest();
}

// Layout tripwires: adding a field to these structs changes their size,
// and the hash functions below must then be taught about the new field
// (or the new field must be explicitly canonicalized out).  Sizes are
// for the x86-64 System V ABI both CI and the dev container use.
static_assert(sizeof(RegFileConfig) == 28,
              "RegFileConfig changed: update addGpuConfig()");
static_assert(sizeof(GpuConfig) == 144,
              "GpuConfig changed: update addGpuConfig()");
static_assert(sizeof(CompileOptions) == 20,
              "CompileOptions changed: update addCompileOptions()");
static_assert(sizeof(RunConfig) == 72,
              "RunConfig changed: update canonicalConfigHash()");

void
addGpuConfig(Hasher &h, const GpuConfig &cfg)
{
    h.u32v(cfg.numSms);
    h.u32v(cfg.maxCtasPerSm);
    h.u32v(cfg.maxWarpsPerSm);
    h.u32v(cfg.issuePerCycle);
    h.u32v(cfg.readyQueueSize);
    h.enumv(cfg.scheduler);
    h.u32v(cfg.icacheInstrs);
    h.u32v(cfg.icacheLineInstrs);
    h.u32v(cfg.icacheMissLatency);
    h.u32v(cfg.dcacheLines);
    h.u32v(cfg.dcacheLineBytes);
    h.u32v(cfg.dcacheHitLatency);
    h.u32v(cfg.aluLatency);
    h.u32v(cfg.mulLatency);
    h.u32v(cfg.fpuLatency);
    h.u32v(cfg.sfuLatency);
    h.u32v(cfg.sharedLatency);
    h.u32v(cfg.globalLatency);
    h.u32v(cfg.mshrsPerSm);
    h.u32v(cfg.dramCyclesPerTransaction);
    h.f64v(cfg.clockGhz);
    h.u32v(cfg.renamingLatency);
    h.boolv(cfg.flagMissBubble);
    h.u32v(cfg.spillCooldown);
    h.u64v(cfg.maxCycles);
    // Canonicalized out: eventDriven (bit-identical results either
    // way; enforced by test_event_equivalence).
    h.u32v(cfg.regFile.sizeBytes);
    h.u32v(cfg.regFile.numBanks);
    h.u32v(cfg.regFile.subarraysPerBank);
    h.enumv(cfg.regFile.mode);
    h.boolv(cfg.regFile.bankRestrictedRenaming);
    h.boolv(cfg.regFile.powerGating);
    h.u32v(cfg.regFile.wakeupLatency);
    h.boolv(cfg.regFile.poisonOnRelease);
    h.boolv(cfg.regFile.lifecycleLint);
    h.u32v(cfg.regFile.flagCacheEntries);
}

void
addCompileOptions(Hasher &h, const CompileOptions &opts)
{
    h.boolv(opts.virtualize);
    h.boolv(opts.aggressiveDiverged);
    h.u32v(opts.renamingTableBytes);
    h.u32v(opts.tableEntryBits);
    h.u32v(opts.residentWarps);
    h.u32v(opts.spillRegBudget);
}

Hash128
canonicalConfigHash(const RunConfig &cfg, const GpuConfig &gpu)
{
    Hasher h;
    addGpuConfig(h, gpu);
    // RunConfig fields that shape compilation or launch geometry but
    // do not land in GpuConfig.  label and eventDriven are
    // deliberately absent (see file comment).
    h.boolv(cfg.virtualize);
    h.boolv(cfg.aggressiveDiverged);
    h.u32v(cfg.renamingTableBytes);
    h.boolv(cfg.compilerSpill);
    h.boolv(cfg.verifyReleases);
    h.u32v(cfg.roundsPerSm);
    return h.digest();
}

Hash128
canonicalConfigHash(const RunConfig &cfg)
{
    return canonicalConfigHash(cfg, Simulator(cfg).gpuConfig());
}

Hash128
resultKey(const std::string &workload, const Hash128 &program_hash,
          const Hash128 &config_hash, const LaunchParams &launch,
          const std::string &sim_version)
{
    Hasher h;
    h.str(workload);
    h.u64v(program_hash.hi);
    h.u64v(program_hash.lo);
    h.u64v(config_hash.hi);
    h.u64v(config_hash.lo);
    h.u32v(launch.gridCtas);
    h.u32v(launch.threadsPerCta);
    h.u32v(launch.concCtasPerSm);
    h.str(sim_version);
    return h.digest();
}

Hash128
routingKey(const std::string &workload, const RunConfig &cfg)
{
    const Hash128 config = canonicalConfigHash(cfg);
    Hasher h;
    h.str("route");
    h.str(workload);
    h.u64v(config.hi);
    h.u64v(config.lo);
    return h.digest();
}

} // namespace rfv
