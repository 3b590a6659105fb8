#include "service/artifact_store.h"

#include "analysis/verifier.h"

namespace rfv {

std::shared_ptr<const InputArtifact>
ArtifactStore::inputProgram(const std::string &name,
                            const std::function<Program()> &build)
{
    return inputs_.getOrBuild(
        name,
        [&]() -> std::shared_ptr<const InputArtifact> {
            auto art = std::make_shared<InputArtifact>();
            art->program = build();
            art->hash = hashProgram(art->program);
            return art;
        });
}

std::shared_ptr<const CompiledArtifact>
ArtifactStore::compiled(const std::shared_ptr<const InputArtifact> &input,
                        const CompileOptions &opts)
{
    Hasher h;
    h.u64v(input->hash.hi);
    h.u64v(input->hash.lo);
    addCompileOptions(h, opts);
    return compiles_.getOrBuild(
        h.digest().hex(),
        [&]() -> std::shared_ptr<const CompiledArtifact> {
            auto art = std::make_shared<CompiledArtifact>();
            art->kernel = compileKernel(input->program, opts);
            art->programHash = hashProgram(art->kernel.program);
            return art;
        });
}

std::shared_ptr<const VerifyResult>
ArtifactStore::verifyFor(const std::shared_ptr<const CompiledArtifact> &ck)
{
    return verifies_.getOrBuild(
        ck->programHash.hex(),
        [&]() -> std::shared_ptr<const VerifyResult> {
            return std::make_shared<VerifyResult>(
                verifyReleaseSoundness(ck->kernel.program));
        });
}

std::shared_ptr<const DecodeArtifact>
ArtifactStore::decode(const std::shared_ptr<const CompiledArtifact> &ck,
                      const GpuConfig &gpu)
{
    Hasher h;
    h.u64v(ck->programHash.hi);
    h.u64v(ck->programHash.lo);
    // addGpuConfig already canonicalizes eventDriven, so the naive
    // and event-driven loops share one DecodeCache.
    addGpuConfig(h, gpu);
    return decodes_.getOrBuild(
        h.digest().hex(),
        [&]() -> std::shared_ptr<const DecodeArtifact> {
            return std::make_shared<DecodeArtifact>(ck->kernel.program,
                                                    gpu);
        });
}

} // namespace rfv
