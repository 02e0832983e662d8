// Throughput bench of the generation front end: runs the paper's §5.1-sized
// variant expansion (the 510-variant (Load|Store)+ study) through one
// MicroCreator and reports variants/second.
//
// Emits BENCH_generate.json for CI's regression gate, which compares
// serial_seconds against bench/BENCH_generate.baseline.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

using namespace microtools;

int main(int argc, char** argv) {
  std::string jsonPath = argc > 1 ? argv[1] : "BENCH_generate.json";
  unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  // The §5.1 workload: (Load|Store)+ over unroll 1..8 — 510 variants, each
  // rendered to assembly and statically verified.
  std::string wide =
      bench::loadStoreKernelXml("movaps", 1, 8, 1, false, /*swapAfter=*/true);

  bench::header("generation front end (one MicroCreator run)",
                "host (" + std::to_string(cores) + " core(s))",
                "one description file yields the 510 variants of §5.1");

  creator::MicroCreator mc;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<creator::GeneratedProgram> programs = mc.generateFromText(wide);
  auto t1 = std::chrono::steady_clock::now();
  double serialSeconds = std::chrono::duration<double>(t1 - t0).count();
  std::size_t variants = programs.size();
  double perSecond = serialSeconds > 0 ? variants / serialSeconds : 0.0;

  std::printf("variants: %zu\n", variants);
  std::printf("serial:   %.3f s  (%.1f variants/s)\n", serialSeconds,
              perSecond);
  bench::expectShape(variants == 510, "the study generates 510 variants");

  std::ofstream json(jsonPath, std::ios::binary);
  json.setf(std::ios::fixed);
  json.precision(6);
  json << "{\n"
       << "  \"variants\": " << variants << ",\n"
       << "  \"cores\": " << cores << ",\n"
       << "  \"serial_seconds\": " << serialSeconds << ",\n"
       << "  \"serial_variants_per_sec\": " << perSecond << ",\n"
       << "  \"env\": " << bench::envJsonObject() << "\n"
       << "}\n";
  std::printf("wrote %s\n", jsonPath.c_str());

  return bench::finish();
}
