#pragma once

// Shared fixtures for the MicroTools test suite: the paper's Figure-6 kernel
// description, small helpers to run the generation pipeline, and per-test
// scratch directories.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "creator/creator.hpp"

namespace microtools::testing {

/// An empty scratch directory private to the running test:
/// `TempDir()/<suite>.<test>_<pid>_<name>`, removed and recreated on every
/// call. ctest runs each gtest case as its own process, in parallel under
/// `-j`, so fixed names would let one case wipe or fill another's files.
/// The directories are removed again when the process that made them
/// exits (a forked child exiting leaves them alone).
inline std::string uniqueTempDir(const std::string& name) {
  struct Registry {
    pid_t owner = ::getpid();
    std::vector<std::string> dirs;
    ~Registry() {
      if (::getpid() != owner) return;
      std::error_code ec;
      for (const std::string& dir : dirs) std::filesystem::remove_all(dir, ec);
    }
  };
  static Registry registry;

  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info ? std::string(info->test_suite_name()) + "." +
                                info->name()
                          : "global";
  std::replace(test.begin(), test.end(), '/', '_');  // parameterized names
  std::string dir = ::testing::TempDir() + "/" + test + "_" +
                    std::to_string(::getpid()) + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  registry.dirs.push_back(dir);
  return dir;
}

/// The (Load|Store)+ description of Figure 6 — §5.1's 510-variant study.
inline std::string figure6Xml(int unrollMin = 1, int unrollMax = 8,
                              bool swapAfter = true) {
  std::string swap = swapAfter ? "<swap_after_unroll/>" : "";
  return std::string(R"(<description>
  <benchmark_name>loadstore</benchmark_name>
  <kernel>
    <instruction>
      <operation>movaps</operation>
      <memory><register><name>r1</name></register><offset>0</offset></memory>
      <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
      )") + swap + R"(
    </instruction>
    <unrolling><min>)" +
         std::to_string(unrollMin) + "</min><max>" +
         std::to_string(unrollMax) + R"(</max></unrolling>
    <induction>
      <register><name>r1</name></register>
      <increment>16</increment>
      <offset>16</offset>
    </induction>
    <induction>
      <register><name>r0</name></register>
      <increment>-1</increment>
      <linked><register><name>r1</name></register></linked>
      <last_induction/>
    </induction>
    <branch_information><label>L6</label><test>jge</test></branch_information>
  </kernel>
</description>)";
}

/// A single-instruction movss load kernel (the §5.2.3 OpenMP workload).
inline std::string movssLoadXml(int unrollMin, int unrollMax,
                                int arrays = 1) {
  std::string instrs;
  for (int a = 0; a < arrays; ++a) {
    instrs += R"(
    <instruction>
      <operation>movss</operation>
      <memory><register><name>p)" +
              std::to_string(a) + R"(</name></register><offset>0</offset></memory>
      <register><phyName>%xmm</phyName><min>0</min><max>8</max></register>
    </instruction>)";
  }
  std::string inductions;
  for (int a = 0; a < arrays; ++a) {
    inductions += R"(
    <induction>
      <register><name>p)" +
                  std::to_string(a) + R"(</name></register>
      <increment>4</increment>
      <offset>4</offset>
    </induction>)";
  }
  return R"(<description>
  <benchmark_name>movss_load</benchmark_name>
  <kernel>)" +
         instrs + R"(
    <unrolling><min>)" +
         std::to_string(unrollMin) + "</min><max>" +
         std::to_string(unrollMax) + R"(</max></unrolling>)" + inductions +
         R"(
    <induction>
      <register><name>r0</name></register>
      <increment>-1</increment>
      <linked><register><name>p0</name></register></linked>
      <last_induction/>
    </induction>
    <branch_information><label>L7</label><test>jge</test></branch_information>
  </kernel>
</description>)";
}

inline std::vector<creator::GeneratedProgram> generate(
    const std::string& xmlText) {
  creator::MicroCreator mc;
  return mc.generateFromText(xmlText);
}

}  // namespace microtools::testing
