#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "asmparse/asmparse.hpp"
#include "creator/creator.hpp"
#include "sim/core.hpp"
#include "sim/machine.hpp"
#include "support/hash.hpp"

// Golden cycle counts of the simulator core. Every other simulator test
// checks a relation (warm beats cold, memo equals exact, ...), so a change
// to the scheduler that shifts every number the same way would pass them
// all; these pin the numbers themselves. They were recorded before the
// O(window) scheduler and the flat fill table landed and must not move
// unless the machine model is meant to change.
//
// Each row runs one generated variant of examples/descriptions/*.xml on one
// machine at one array size: a cold invoke on a fresh MemorySystem, then a
// warm invoke that starts where the cold one ended. A mismatch prints the
// observed row in table syntax.

namespace microtools::sim {
namespace {

namespace fs = std::filesystem;

struct Phase {
  std::uint64_t coreCycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t uops = 0;
  std::uint64_t iterations = 0;
  double energyPj = 0.0;
  // Cumulative MemorySystem statistics after the invoke.
  std::uint64_t l1 = 0, l2 = 0, l3 = 0, ram = 0, prefetches = 0;

  bool operator==(const Phase& o) const {
    return coreCycles == o.coreCycles && instructions == o.instructions &&
           uops == o.uops && iterations == o.iterations &&
           energyPj == o.energyPj && l1 == o.l1 && l2 == o.l2 &&
           l3 == o.l3 && ram == o.ram && prefetches == o.prefetches;
  }
};

struct GoldenRow {
  const char* machine;
  const char* variant;  // "<description stem>/<variant name>"
  std::uint64_t arrayBytes;
  Phase cold, warm;
};

// clang-format off
const GoldenRow kGolden[] = {
    {"sandy_bridge_e31240", "fpadd_small/fpadd_small_u1", 16384,
     {13843, 20488, 24584, 4097, 0x1.14e7a1f07c1f1p+23, 3840, 251, 0, 6, 263},
     {12297, 20488, 24584, 4097, 0x1.ef642d1745d18p+22, 7937, 251, 0, 6, 263}},
    {"sandy_bridge_e31240", "fpadd_small/fpadd_small_u1", 1048576,
     {863839, 1310728, 1572872, 262145, 0x1.0e60999f07c2p+29, 245760, 16127, 0, 258, 16139},
     {807738, 1310728, 1572872, 262145, 0x1.fbd9fe3d1745ep+28, 491520, 31999, 513, 258, 32011}},
    {"sandy_bridge_e31240", "fpadd_small/fpadd_small_u2", 16384,
     {7776, 12297, 16394, 2049, 0x1.3ce3951745d18p+22, 3841, 251, 0, 6, 263},
     {6154, 12297, 16394, 2049, 0x1.ff5197c1f07c3p+21, 7939, 251, 0, 6, 263}},
    {"sandy_bridge_e31240", "fpadd_small/fpadd_small_u2", 1048576,
     {474984, 786441, 1048586, 131073, 0x1.2f80ab0e8ba2fp+28, 245761, 16127, 0, 258, 16139},
     {418878, 786441, 1048586, 131073, 0x1.0e98b8a8ba2e9p+28, 491522, 31999, 513, 258, 32011}},
    {"sandy_bridge_e31240", "fpadd_small/fpadd_small_u3", 16384,
     {6086, 9565, 13662, 1366, 0x1.f46936c9b26cap+21, 3841, 251, 0, 6, 263},
     {4112, 9565, 13662, 1366, 0x1.5fe8f9b26c9b3p+21, 7939, 251, 0, 6, 263}},
    {"sandy_bridge_e31240", "fpadd_small/fpadd_small_u3", 1048576,
     {366614, 611677, 873822, 87382, 0x1.d9664420f83e2p+27, 245761, 16127, 0, 258, 16139},
     {377563, 611677, 873822, 87382, 0x1.e7c9539364d94p+27, 491522, 19199, 13313, 258, 19211}},
    {"sandy_bridge_e31240", "fpadd_small/fpadd_small_u4", 16384,
     {5964, 8203, 12302, 1025, 0x1.e73cdba2e8ba4p+21, 3843, 251, 0, 6, 263},
     {4108, 8203, 12302, 1025, 0x1.5b7777c1f07c2p+21, 7943, 251, 0, 6, 263}},
    {"sandy_bridge_e31240", "fpadd_small/fpadd_small_u4", 1048576,
     {358260, 524299, 786446, 65537, 0x1.cb937e5745d18p+27, 245763, 16127, 0, 258, 16139},
     {347195, 524299, 786446, 65537, 0x1.c083fe83e0f85p+27, 491526, 19199, 13313, 258, 19211}},
    {"sandy_bridge_e31240", "loadstore_small/loadstore_small_u1", 16384,
     {4804, 5128, 5127, 1025, 0x1.770491364d937p+21, 768, 251, 0, 6, 263},
     {2064, 5128, 5127, 1025, 0x1.53b181745d175p+20, 1793, 251, 0, 6, 263}},
    {"sandy_bridge_e31240", "loadstore_small/loadstore_small_u1", 1048576,
     {288052, 327688, 327687, 65537, 0x1.600ae0164d937p+27, 49152, 16127, 0, 258, 16139},
     {166450, 327688, 327687, 65537, 0x1.aa68ddb83e0f9p+26, 98304, 19198, 13314, 258, 19210}},
    {"sandy_bridge_e31240", "loadstore_small/loadstore_small_u2", 16384,
     {4140, 3081, 3080, 513, 0x1.3fa5f745d1746p+21, 769, 251, 0, 6, 263},
     {1040, 3081, 3080, 513, 0x1.5f5fe0f83e0f9p+19, 1795, 251, 0, 6, 263}},
    {"sandy_bridge_e31240", "loadstore_small/loadstore_small_u2", 1048576,
     {241272, 196617, 196616, 32769, 0x1.23b76151745d2p+27, 49153, 16127, 0, 258, 16139},
     {131130, 196617, 196616, 32769, 0x1.4d37f051745d2p+26, 98306, 16895, 15617, 258, 16907}},
    {"sandy_bridge_e31240", "loadstore_small/loadstore_small_u3", 16384,
     {4027, 2397, 2396, 342, 0x1.3533707c1f07dp+21, 769, 251, 0, 6, 263},
     {699, 2397, 2396, 342, 0x1.e43a1745d1747p+18, 1795, 251, 0, 6, 263}},
    {"sandy_bridge_e31240", "loadstore_small/loadstore_small_u3", 1048576,
     {234859, 152925, 152924, 21846, 0x1.1a383e7c1f07dp+27, 49153, 16127, 0, 258, 16139},
     {131130, 152925, 152924, 21846, 0x1.495fbd51745d2p+26, 98306, 16127, 16385, 258, 16139}},
    {"sandy_bridge_e31240", "loadstore_small/loadstore_small_u4", 16384,
     {3946, 2059, 2058, 257, 0x1.2e2e09364d937p+21, 771, 251, 0, 6, 263},
     {529, 2059, 2058, 257, 0x1.776203e0f83e2p+18, 1799, 251, 0, 6, 263}},
    {"sandy_bridge_e31240", "loadstore_small/loadstore_small_u4", 1048576,
     {229738, 131083, 131082, 16385, 0x1.13422eb07c1f1p+27, 49155, 16127, 0, 258, 16139},
     {131130, 131083, 131082, 16385, 0x1.474a82d1745d2p+26, 98310, 16127, 16385, 258, 16139}},
    {"nehalem_x5650_2s", "fpadd_small/fpadd_small_u1", 16384,
     {13503, 20488, 24584, 4097, 0x1.498b7d7baf75fp+23, 3840, 251, 0, 6, 263},
     {12297, 20488, 24584, 4097, 0x1.2d5c6fe8fd1fbp+23, 7937, 251, 0, 6, 263}},
    {"nehalem_x5650_2s", "fpadd_small/fpadd_small_u1", 1048576,
     {846363, 1310728, 1572872, 262145, 0x1.430a2a7a3f47fp+29, 245760, 16127, 0, 258, 16139},
     {807226, 1310728, 1572872, 262145, 0x1.34d266a34bbedp+29, 491520, 31999, 513, 258, 32011}},
    {"nehalem_x5650_2s", "fpadd_small/fpadd_small_u2", 16384,
     {7436, 12297, 16394, 2049, 0x1.71370dd00f574p+22, 3841, 251, 0, 6, 263},
     {6154, 12297, 16394, 2049, 0x1.355f6f4f949d4p+22, 7939, 251, 0, 6, 263}},
    {"nehalem_x5650_2s", "fpadd_small/fpadd_small_u2", 1048576,
     {457508, 786441, 1048586, 131073, 0x1.63cbc2bb90c77p+28, 245761, 16127, 0, 258, 16139},
     {418364, 786441, 1048586, 131073, 0x1.475af35688266p+28, 491522, 31999, 513, 258, 32011}},
    {"nehalem_x5650_2s", "fpadd_small/fpadd_small_u3", 16384,
     {5571, 9565, 13662, 1366, 0x1.17c7aed4da9b6p+22, 3841, 251, 0, 6, 263},
     {4112, 9565, 13662, 1366, 0x1.a7b0de807aba1p+21, 7939, 251, 0, 6, 263}},
    {"nehalem_x5650_2s", "fpadd_small/fpadd_small_u3", 1048576,
     {337875, 611677, 873822, 87382, 0x1.0a2afa1a3f47fp+28, 245761, 16127, 0, 258, 16139},
     {370836, 611677, 873822, 87382, 0x1.22943a147e8fdp+28, 491522, 19200, 13312, 258, 19212}},
    {"nehalem_x5650_2s", "fpadd_small/fpadd_small_u4", 16384,
     {5464, 8203, 12302, 1025, 0x1.10d077949d3e6p+22, 3843, 251, 0, 6, 263},
     {4108, 8203, 12302, 1025, 0x1.a32d7c76e431ep+21, 7943, 251, 0, 6, 263}},
    {"nehalem_x5650_2s", "fpadd_small/fpadd_small_u4", 1048576,
     {330796, 524299, 786446, 65537, 0x1.030718beae808p+28, 245763, 16127, 0, 258, 16139},
     {347972, 524299, 786446, 65537, 0x1.1029a298545fep+28, 491526, 19200, 13312, 258, 19212}},
    {"nehalem_x5650_2s", "loadstore_small/loadstore_small_u1", 16384,
     {4326, 5128, 5127, 1025, 0x1.9f2bc381702e1p+21, 768, 251, 0, 6, 263},
     {2064, 5128, 5127, 1025, 0x1.9bc0e6a6d4daap+20, 1793, 251, 0, 6, 263}},
    {"nehalem_x5650_2s", "loadstore_small/loadstore_small_u1", 1048576,
     {261366, 327688, 327687, 65537, 0x1.887bcec8fd1fbp+27, 49152, 16127, 0, 258, 16139},
     {162864, 327688, 327687, 65537, 0x1.faf6a9278cf1ap+26, 98304, 19198, 13314, 258, 19210}},
    {"nehalem_x5650_2s", "loadstore_small/loadstore_small_u2", 16384,
     {3544, 3081, 3080, 513, 0x1.516bad2efb34cp+21, 769, 251, 0, 6, 263},
     {1040, 3081, 3080, 513, 0x1.a7fe46f3891bdp+19, 1795, 251, 0, 6, 263}},
    {"nehalem_x5650_2s", "loadstore_small/loadstore_small_u2", 1048576,
     {208420, 196617, 196616, 32769, 0x1.3696a0c5fe152p+27, 49153, 16127, 0, 258, 16139},
     {141584, 196617, 196616, 32769, 0x1.b1fb25ad8b06cp+26, 98306, 18426, 14086, 258, 18438}},
    {"nehalem_x5650_2s", "loadstore_small/loadstore_small_u3", 16384,
     {3479, 2397, 2396, 342, 0x1.4963c4132d105p+21, 769, 251, 0, 6, 263},
     {1031, 2397, 2396, 342, 0x1.9c5a149d3e528p+19, 1795, 251, 0, 6, 263}},
    {"nehalem_x5650_2s", "loadstore_small/loadstore_small_u3", 1048576,
     {204239, 152925, 152924, 21846, 0x1.2e880fdf66978p+27, 49153, 16127, 0, 258, 16139},
     {131128, 152925, 152924, 21846, 0x1.90cb603e5275p+26, 98306, 16382, 16130, 258, 16394}},
    {"nehalem_x5650_2s", "loadstore_small/loadstore_small_u4", 16384,
     {3432, 2059, 2058, 257, 0x1.4410442284509p+21, 771, 251, 0, 6, 263},
     {1033, 2059, 2058, 257, 0x1.98f818b06b62dp+19, 1799, 251, 0, 6, 263}},
    {"nehalem_x5650_2s", "loadstore_small/loadstore_small_u4", 1048576,
     {201000, 131083, 131082, 16385, 0x1.28dcc5781702ep+27, 49155, 16127, 0, 258, 16139},
     {131128, 131083, 131082, 16385, 0x1.8ed18a3e5275p+26, 98310, 16127, 16385, 258, 16139}},
    {"nehalem_x7550_4s", "fpadd_small/fpadd_small_u1", 16384,
     {14513, 20488, 24584, 4097, 0x1.cfc5fp+23, 3840, 251, 0, 6, 263},
     {12297, 20488, 24584, 4097, 0x1.8b87f8p+23, 7937, 251, 0, 6, 263}},
    {"nehalem_x7550_4s", "fpadd_small/fpadd_small_u1", 1048576,
     {898277, 1310728, 1572872, 262145, 0x1.c11102cp+29, 245760, 16127, 0, 258, 16139},
     {806202, 1310728, 1572872, 262145, 0x1.94ec3f7p+29, 491520, 31999, 513, 258, 32011}},
    {"nehalem_x7550_4s", "fpadd_small/fpadd_small_u2", 16384,
     {8446, 12297, 16394, 2049, 0x1.105ffcp+23, 3841, 251, 0, 6, 263},
     {6154, 12297, 16394, 2049, 0x1.93a088p+22, 7939, 251, 0, 6, 263}},
    {"nehalem_x7550_4s", "fpadd_small/fpadd_small_u2", 1048576,
     {509422, 786441, 1048586, 131073, 0x1.01655dfp+29, 245761, 16127, 0, 258, 16139},
     {417336, 786441, 1048586, 131073, 0x1.aa7e85cp+28, 491522, 31999, 513, 258, 32011}},
    {"nehalem_x7550_4s", "fpadd_small/fpadd_small_u3", 16384,
     {7310, 9565, 13662, 1366, 0x1.d73ec8p+22, 3841, 251, 0, 6, 263},
     {4112, 9565, 13662, 1366, 0x1.12d318p+22, 7939, 251, 0, 6, 263}},
    {"nehalem_x7550_4s", "fpadd_small/fpadd_small_u3", 1048576,
     {436718, 611677, 873822, 87382, 0x1.b94a0f2p+28, 245761, 16127, 0, 258, 16139},
     {353418, 611677, 873822, 87382, 0x1.6ab69ep+28, 491522, 19199, 13313, 258, 19211}},
    {"nehalem_x7550_4s", "fpadd_small/fpadd_small_u4", 16384,
     {7270, 8203, 12302, 1025, 0x1.d2bae8p+22, 3843, 251, 0, 6, 263},
     {4108, 8203, 12302, 1025, 0x1.1081b8p+22, 7943, 251, 0, 6, 263}},
    {"nehalem_x7550_4s", "fpadd_small/fpadd_small_u4", 1048576,
     {434158, 524299, 786446, 65537, 0x1.b4c3c3ap+28, 245763, 16127, 0, 258, 16139},
     {330552, 524299, 786446, 65537, 0x1.52d2cd8p+28, 491526, 19199, 13313, 258, 19211}},
    {"nehalem_x7550_4s", "loadstore_small/loadstore_small_u1", 16384,
     {6592, 5128, 5127, 1025, 0x1.9c25dcp+22, 768, 251, 0, 6, 263},
     {2064, 5128, 5127, 1025, 0x1.0d19d8p+21, 1793, 251, 0, 6, 263}},
    {"nehalem_x7550_4s", "loadstore_small/loadstore_small_u1", 1048576,
     {391648, 327688, 327687, 65537, 0x1.7f094b7p+28, 49152, 16127, 0, 258, 16139},
     {151588, 327688, 327687, 65537, 0x1.3608582p+27, 98304, 18685, 13827, 258, 18697}},
    {"nehalem_x7550_4s", "loadstore_small/loadstore_small_u2", 16384,
     {5960, 3081, 3080, 513, 0x1.72737p+22, 769, 251, 0, 6, 263},
     {1040, 3081, 3080, 513, 0x1.13b6p+20, 1795, 251, 0, 6, 263}},
    {"nehalem_x7550_4s", "loadstore_small/loadstore_small_u2", 1048576,
     {349436, 196617, 196616, 32769, 0x1.53a7a3cp+28, 49153, 16127, 0, 258, 16139},
     {131124, 196617, 196616, 32769, 0x1.09205fp+27, 98306, 16894, 15618, 258, 16906}},
    {"nehalem_x7550_4s", "loadstore_small/loadstore_small_u3", 16384,
     {5862, 2397, 2396, 342, 0x1.6b6dp+22, 769, 251, 0, 6, 263},
     {1031, 2397, 2396, 342, 0x1.0d56cp+20, 1795, 251, 0, 6, 263}},
    {"nehalem_x7550_4s", "loadstore_small/loadstore_small_u3", 1048576,
     {343542, 152925, 152924, 21846, 0x1.4cfep+28, 49153, 16127, 0, 258, 16139},
     {131124, 152925, 152924, 21846, 0x1.073437cp+27, 98306, 16127, 16385, 258, 16139}},
    {"nehalem_x7550_4s", "loadstore_small/loadstore_small_u4", 16384,
     {5862, 2059, 2058, 257, 0x1.6ae958p+22, 771, 251, 0, 6, 263},
     {1033, 2059, 2058, 257, 0x1.0bc52p+20, 1799, 251, 0, 6, 263}},
    {"nehalem_x7550_4s", "loadstore_small/loadstore_small_u4", 1048576,
     {343542, 131083, 131082, 16385, 0x1.4c78b16p+28, 49155, 16127, 0, 258, 16139},
     {131124, 131083, 131082, 16385, 0x1.06299a8p+27, 98310, 16127, 16385, 258, 16139}},
};
// clang-format on

std::string render(const Phase& p) {
  char energy[64];
  std::snprintf(energy, sizeof energy, "%a", p.energyPj);  // exact
  std::ostringstream os;
  os << "{" << p.coreCycles << ", " << p.instructions << ", " << p.uops
     << ", " << p.iterations << ", " << energy << ", " << p.l1 << ", "
     << p.l2 << ", " << p.l3 << ", " << p.ram << ", " << p.prefetches
     << "}";
  return os.str();
}

std::string render(const GoldenRow& row) {
  std::ostringstream os;
  os << "    {\"" << row.machine << "\", \"" << row.variant << "\", "
     << row.arrayBytes << ",\n     " << render(row.cold) << ",\n     "
     << render(row.warm) << "},";
  return os.str();
}

struct Variant {
  std::string id;  // "<description stem>/<variant name>"
  asmparse::Program program;
  int arrays = 0;
};

/// Every variant MicroCreator generates from the bundled examples, in
/// file-name then generation order.
const std::vector<Variant>& exampleVariants() {
  static const std::vector<Variant> variants = [] {
    std::vector<fs::path> files;
    for (const fs::directory_entry& e :
         fs::directory_iterator(MT_EXAMPLES_DIR)) {
      if (e.path().extension() == ".xml") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    std::vector<Variant> out;
    creator::MicroCreator mc;
    for (const fs::path& file : files) {
      for (creator::GeneratedProgram& p : mc.generateFromFile(file.string())) {
        Variant v;
        v.id = file.stem().string() + "/" + p.name;
        v.program = asmparse::parseAssembly(p.asmText);
        v.program.functionName = p.functionName;
        v.arrays = p.arrayCount;
        out.push_back(std::move(v));
      }
    }
    return out;
  }();
  return variants;
}

/// Array layout of SimBackend::planAddresses for process 0.
std::vector<std::uint64_t> arrayAddresses(int arrays, std::uint64_t bytes) {
  std::vector<std::uint64_t> addrs;
  std::uint64_t cursor = 0x100000000ull;
  for (int i = 0; i < arrays; ++i) {
    addrs.push_back(cursor);
    cursor += (bytes + 2 * 1024 * 1024 + 4095) / 4096 * 4096;
  }
  return addrs;
}

int tripCount(std::uint64_t bytes) { return static_cast<int>(bytes / 4); }

Phase observe(const RunResult& r, const MemorySystem& ms) {
  Phase p;
  p.coreCycles = r.coreCycles;
  p.instructions = r.instructions;
  p.uops = r.uops;
  p.iterations = r.iterations;
  p.energyPj = r.energyPj;
  p.l1 = ms.levelCount(MemLevel::L1);
  p.l2 = ms.levelCount(MemLevel::L2);
  p.l3 = ms.levelCount(MemLevel::L3);
  p.ram = ms.levelCount(MemLevel::Ram);
  p.prefetches = ms.prefetchCount();
  return p;
}

/// Runs the cold then the warm invoke of one variant on one machine.
GoldenRow simulate(const MachineConfig& machine, const Variant& variant,
                   std::uint64_t bytes, std::FILE* trace = nullptr) {
  MemorySystem ms(machine);
  CoreSim core(machine, ms, 0);
  core.setTrace(trace);
  std::vector<std::uint64_t> addrs = arrayAddresses(variant.arrays, bytes);
  GoldenRow row{machine.name.c_str(), variant.id.c_str(), bytes, {}, {}};
  RunResult cold = core.run(variant.program, tripCount(bytes), addrs, 0);
  row.cold = observe(cold, ms);
  RunResult warm =
      core.run(variant.program, tripCount(bytes), addrs, cold.coreCycles);
  row.warm = observe(warm, ms);
  return row;
}

class SimGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SimGolden, ColdAndWarmInvokesMatchRecordedNumbers) {
  const MachineConfig machine = machineByName(GetParam());
  const std::vector<Variant>& variants = exampleVariants();
  ASSERT_FALSE(variants.empty());
  std::size_t rows = 0;
  for (const GoldenRow& g : kGolden) rows += machine.name == g.machine;
  EXPECT_EQ(rows, variants.size() * 2) << "golden table is incomplete";

  for (const Variant& variant : variants) {
    for (std::uint64_t bytes : {16ull * 1024, 1024ull * 1024}) {
      GoldenRow got = simulate(machine, variant, bytes);
      const GoldenRow* want = nullptr;
      for (const GoldenRow& g : kGolden) {
        if (machine.name == g.machine && variant.id == g.variant &&
            bytes == g.arrayBytes) {
          want = &g;
        }
      }
      if (!want) {
        ADD_FAILURE() << "no golden row; observed:\n" << render(got);
        continue;
      }
      EXPECT_TRUE(got.cold == want->cold && got.warm == want->warm)
          << "expected:\n" << render(*want) << "\nobserved:\n" << render(got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, SimGolden, ::testing::ValuesIn(machineNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The issue log of one kernel, cycle by cycle: a scheduler change that
// keeps the totals above but reorders issue within the run shows here.
TEST(SimGoldenTrace, IssueLogHashOfOneKernel) {
  const std::vector<Variant>& variants = exampleVariants();
  auto it = std::find_if(variants.begin(), variants.end(),
                         [](const Variant& v) {
                           return v.id.rfind("loadstore_small/", 0) == 0;
                         });
  ASSERT_NE(it, variants.end());
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* log = open_memstream(&buffer, &size);
  ASSERT_NE(log, nullptr);
  simulate(nehalemX5650DualSocket(), *it, 16 * 1024, log);
  std::fclose(log);
  std::string text(buffer, size);
  std::free(buffer);
  EXPECT_GT(text.size(), 0u);
  EXPECT_EQ(hash::fnv1a(text), 0xf0d595bd6f8c7b8bull)
      << it->id << ": " << std::count(text.begin(), text.end(), '\n')
      << " lines, hash 0x" << hash::toHex(hash::fnv1a(text));
}

// Cores ticking in lockstep against one shared MemorySystem: each core's
// nextEvent() must still land on the cycles the recorded run used.
TEST(SimGoldenTrace, MultiCoreLockstepRun) {
  const std::vector<Variant>& variants = exampleVariants();
  ASSERT_FALSE(variants.empty());
  const Variant& variant = variants.back();
  MachineConfig machine = nehalemX5650DualSocket();
  MultiCoreRunner runner(machine);
  std::vector<CoreWork> work(3);
  for (int p = 0; p < 3; ++p) {
    CoreWork& w = work[static_cast<std::size_t>(p)];
    w.program = &variant.program;
    w.n = tripCount(64 * 1024);
    w.arrayAddrs = arrayAddresses(variant.arrays, 64 * 1024);
    for (std::uint64_t& a : w.arrayAddrs) {
      a += static_cast<std::uint64_t>(p) * 0x400000000ull;
    }
    w.physicalCore = MultiCoreRunner::scatterPin(machine, p);
    w.calls = 2;
  }
  std::vector<RunResult> results = runner.run(work);
  hash::Fnv1a h;
  std::ostringstream os;
  for (const RunResult& r : results) {
    h.u64(r.coreCycles).u64(r.instructions).u64(r.uops).u64(r.iterations);
    os << r.coreCycles << "/" << r.instructions << "/" << r.uops << "/"
       << r.iterations << " ";
  }
  EXPECT_EQ(h.value(), 0xd541aea4a7f239efull)
      << variant.id << ": " << os.str() << "hash 0x" << h.hex();
}

}  // namespace
}  // namespace microtools::sim
