#include "tools/campaign_front.hpp"

#include "native/compile.hpp"
#include "native/native_backend.hpp"
#include "support/envinfo.hpp"

namespace microtools::tools {

void bindNativeBackend(launcher::CampaignFlags& flags) {
  if (flags.sweep.backend != "native") return;
  native::NativeBackendOptions nb;
  nb.compileCacheDir = flags.compileCacheDir;
  nb.perfCounters = flags.perfCounters;
  flags.sweep.backendFactory = [nb](int) {
    return std::make_unique<native::NativeBackend>(nb);
  };
}

std::unique_ptr<launcher::CampaignCsvSink> openCampaignCsv(
    launcher::CampaignFlags& flags) {
  if (flags.csvPath.empty()) return nullptr;
  launcher::ExploreOptions& sweep = flags.sweep;
  if (sweep.search == launcher::SearchMode::Halving) {
    sweep.planner.resumeCsv = flags.csvPath;
  } else {
    sweep.campaign.completed = launcher::readCompletedVariants(flags.csvPath);
  }
  // The preamble makes two campaign CSVs comparable on their face
  // (bench-diff reports drift between them).
  env::EnvSnapshot snapshot = env::captureEnv();
  if (sweep.backend == "native") {
    snapshot.set("compiler", native::compilerIdentity(flags.compileCacheDir));
    snapshot.set("pred_columns",
                 "empty: the static cost model prices the simulated --arch, "
                 "not this host");
  }
  return std::make_unique<launcher::CampaignCsvSink>(
      flags.csvPath, env::toCsvComments(snapshot));
}

}  // namespace microtools::tools
