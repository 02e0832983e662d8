#pragma once

#include <string>

#include "launcher/explore.hpp"
#include "support/cli.hpp"

namespace microtools::launcher {

/// The campaign front end shared by `microtools explore` and `microlauncher
/// --campaign`: every flag both tools take is registered, read and
/// validated here once, so the two can never drift apart. Flags whose
/// default or meaning differs between the tools (--nbvectors, --seed) and
/// flags only one tool has (--cache, --top, --report, --input, ...) stay
/// with that tool.
struct CampaignFlags {
  /// Backend, machine, campaign protocol, search, prediction, --connect
  /// and the launch geometry. The generation, cache and nbVectors fields
  /// are left at their defaults for the tool to fill.
  ExploreOptions sweep;
  std::string csvPath;          ///< --csv ("" = none)
  std::string compileCacheDir;  ///< --compile-cache-dir ("" = none)
  bool perfCounters = true;     ///< !--no-perf-counters
  bool verbose = false;
};

/// Registers the launch-geometry group: --array-bytes, --alignment,
/// --align-offset, --element-bytes, --n.
void addGeometryFlags(cli::Parser& parser);

/// Reads the geometry group; throws ParseError on --element-bytes 0.
KernelGeometry geometryFrom(const cli::Parser& parser);

/// Registers every shared campaign flag, the geometry group included.
void addCampaignFlags(cli::Parser& parser);

/// Reads and validates the flags addCampaignFlags registered; throws
/// ParseError on any invalid value.
CampaignFlags campaignFlagsFrom(const cli::Parser& parser);

}  // namespace microtools::launcher
