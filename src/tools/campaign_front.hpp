#pragma once

#include <memory>

#include "launcher/campaign_flags.hpp"

namespace microtools::tools {

// The native half of the campaign front end. It lives with the tools
// because the launcher library cannot see the native backend (the native
// library links the launcher, not the other way round).

/// With --backend native, sets flags.sweep.backendFactory to native
/// backends that compile into flags.compileCacheDir and honour
/// --no-perf-counters. The simulator's factory is built by the sweep.
void bindNativeBackend(launcher::CampaignFlags& flags);

/// With --csv, prepares the resume — a full sweep skips the rows already
/// terminal in the file, a halving search resumes round by round — and
/// opens the file for streaming; a new file starts with the `# env.*`
/// environment preamble. Returns nullptr without --csv.
std::unique_ptr<launcher::CampaignCsvSink> openCampaignCsv(
    launcher::CampaignFlags& flags);

}  // namespace microtools::tools
