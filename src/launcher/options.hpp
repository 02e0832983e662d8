#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/cli.hpp"

namespace microtools::launcher {

/// The launcher's own options (§4.2: "more than thirty options in the
/// MicroLauncher tool for behavior tweaking"). The flags it shares with
/// `microtools explore` — backend, machine, protocol, geometry, campaign
/// and output — are read by campaignFlagsFrom (launcher/campaign_flags.hpp).
struct LauncherOptions {
  // -- input -----------------------------------------------------------------
  std::string inputFile;             ///< assembly/C/shared-object kernel
  std::string inputKind = "auto";    ///< auto|asm|c|so|exec (§4.1)
  std::string function = "microkernel";  ///< kernel entry point
  std::string standaloneProgram;     ///< fork-and-time a whole program

  // -- arrays (--nbvectors & friends, §4.4) -----------------------------------
  int nbVectors = 1;
  std::vector<std::uint64_t> arrayBytesPerVector;  ///< overrides per array

  // -- alignment sweep ---------------------------------------------------------
  bool sweepAlignment = false;
  std::uint64_t alignMin = 0;
  std::uint64_t alignMax = 4096;
  std::uint64_t alignStep = 64;
  std::uint64_t maxAlignConfigs = 2500;

  // -- protocol ---------------------------------------------------------------
  bool reportFullKernelTime = false;  ///< §4.3 "full kernel execution" option

  // -- placement ----------------------------------------------------------------
  int pinCore = 0;
  int processes = 1;            ///< fork mode core count (§4.6)
  std::string pinPolicy = "scatter";  ///< scatter|compact
  int forkCalls = 4;

  // -- OpenMP -------------------------------------------------------------------
  bool useOpenMp = false;
  int threads = 4;
  int ompRepetitions = 10;

  // -- campaign mode ------------------------------------------------------------
  std::string campaignDir;     ///< directory of .s/.c variants; "" = off

  bool listArch = false;
};

/// Registers every option on a CLI parser (also serves as the --help page):
/// the launcher's own, then addCampaignFlags.
cli::Parser makeLauncherParser();

/// Extracts the launcher's own options from a parsed command line; throws
/// ParseError on invalid combinations.
LauncherOptions optionsFromParser(const cli::Parser& parser);

}  // namespace microtools::launcher
