#include "launcher/launcher.hpp"

#include <numeric>

#include "support/error.hpp"

namespace microtools::launcher {

KernelRequest buildRequest(const KernelGeometry& geometry, int nbVectors,
                           const std::vector<std::uint64_t>& perVectorBytes) {
  KernelRequest request;
  request.chunkStrideBytes = geometry.elementBytes;
  for (int i = 0; i < nbVectors; ++i) {
    auto index = static_cast<std::size_t>(i);
    request.arrays.push_back(ArraySpec{index < perVectorBytes.size()
                                           ? perVectorBytes[index]
                                           : geometry.arrayBytes,
                                       geometry.alignment,
                                       geometry.alignOffset});
  }
  if (geometry.tripCount) {
    request.n = *geometry.tripCount;
    return request;
  }
  if (geometry.elementBytes == 0) throw McError("--element-bytes must be > 0");
  std::uint64_t bytes = perVectorBytes.empty() ? geometry.arrayBytes
                                               : perVectorBytes.front();
  std::uint64_t elements = bytes / geometry.elementBytes;
  if (elements == 0 || elements > 0x7fffffffull) {
    throw McError("array size yields an invalid trip count");
  }
  request.n = static_cast<int>(elements);
  return request;
}

std::vector<std::vector<std::uint64_t>> alignmentConfigurations(
    std::size_t arrayCount, const AlignmentSweepSpec& spec) {
  if (arrayCount == 0) throw McError("alignment sweep needs >= 1 array");
  if (spec.step == 0 || spec.maxOffset <= spec.minOffset) {
    throw McError("alignment sweep requires step > 0 and max > min");
  }
  if (spec.maxConfigs == 0) {
    throw McError("alignment sweep requires maxConfigs > 0");
  }
  std::uint64_t perArray = (spec.maxOffset - spec.minOffset + spec.step - 1) /
                           spec.step;
  // Total configurations = perArray ^ arrayCount, computed with saturation.
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < arrayCount; ++i) {
    if (total > (1ull << 62) / perArray) {
      total = ~0ull;
      break;
    }
    total *= perArray;
  }
  std::uint64_t count =
      std::min<std::uint64_t>(total, static_cast<std::uint64_t>(spec.maxConfigs));
  // Stride through the product space so every digit (array offset) varies.
  std::uint64_t stride;
  if (total == ~0ull) {
    // Saturated product: `total / count` is meaningless here (the old
    // stride-1 fallback froze every digit but the lowest). Walk the code
    // space with a golden-ratio step instead: odd, so the 2^64 orbit never
    // revisits a code, with bits in every 16-bit chunk so even a small
    // budget of consecutive codes varies every array's digit (a stride near
    // a power of the radix would hold the middle digits constant). Nudged
    // until coprime with the radix so the lowest digit sweeps as well.
    stride = 0x9e3779b97f4a7c15ull;
    while (std::gcd(stride, perArray) != 1) stride -= 2;
  } else {
    stride = total / count;
    if (stride == 0) stride = 1;
    if (stride > 1 && stride % perArray == 0) {
      // A stride that is a multiple of the radix would freeze the lowest
      // digit; nudge it off the multiple.
      --stride;
    }
  }

  std::vector<std::vector<std::uint64_t>> configs;
  configs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t code = i * stride;
    std::vector<std::uint64_t> offsets(arrayCount);
    for (std::size_t a = 0; a < arrayCount; ++a) {
      offsets[a] = spec.minOffset + (code % perArray) * spec.step;
      code /= perArray;
    }
    configs.push_back(std::move(offsets));
  }
  return configs;
}

MicroLauncher::MicroLauncher(std::unique_ptr<Backend> backend)
    : backend_(std::move(backend)) {
  if (!backend_) throw McError("MicroLauncher requires a backend");
}

std::unique_ptr<KernelHandle> MicroLauncher::load(
    const std::string& asmText, const std::string& functionName) {
  return backend_->load(asmText, functionName);
}

std::unique_ptr<KernelHandle> MicroLauncher::load(
    const creator::GeneratedProgram& p) {
  return backend_->load(p);
}

Measurement MicroLauncher::measure(KernelHandle& kernel,
                                   const KernelRequest& request,
                                   const ProtocolOptions& options) {
  return measureKernel(*backend_, kernel, request, options);
}

std::vector<AlignmentSample> MicroLauncher::alignmentSweep(
    KernelHandle& kernel, const KernelRequest& request,
    const AlignmentSweepSpec& spec, const ProtocolOptions& options) {
  std::vector<AlignmentSample> samples;
  for (std::vector<std::uint64_t>& offsets :
       alignmentConfigurations(request.arrays.size(), spec)) {
    KernelRequest configured = request;
    for (std::size_t a = 0; a < configured.arrays.size(); ++a) {
      configured.arrays[a].offset = offsets[a];
    }
    backend_->reset();  // each configuration starts from cold caches
    AlignmentSample sample;
    sample.measurement = measureKernel(*backend_, kernel, configured, options);
    sample.offsets = std::move(offsets);
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<InvokeResult> MicroLauncher::fork(KernelHandle& kernel,
                                              const KernelRequest& request,
                                              int processes, int calls,
                                              PinPolicy policy) {
  return backend_->invokeFork(kernel, request, processes, calls, policy);
}

InvokeResult MicroLauncher::openmp(KernelHandle& kernel,
                                   const KernelRequest& request, int threads,
                                   int repetitions) {
  return backend_->invokeOpenMp(kernel, request, threads, repetitions);
}

csv::Table MicroLauncher::toCsv(
    const std::vector<std::pair<std::string, Measurement>>& rows) {
  csv::Table table({"configuration", "iterations_per_call",
                    "cycles_per_iteration_min", "cycles_per_iteration_mean",
                    "cycles_per_iteration_median", "cycles_per_iteration_max",
                    "cv"});
  for (const auto& [name, m] : rows) {
    table.beginRow()
        .add(name)
        .add(static_cast<std::uint64_t>(m.iterationsPerCall))
        .add(m.cyclesPerIteration.min)
        .add(m.cyclesPerIteration.mean)
        .add(m.cyclesPerIteration.median)
        .add(m.cyclesPerIteration.max)
        .add(m.cyclesPerIteration.cv, 6)
        .commit();
  }
  return table;
}

}  // namespace microtools::launcher
