// Shared scaffolding for the self-timed benches: the RANM_SMOKE switch
// and the BENCH_*.json report shape ({"bench", "smoke", "provenance",
// "results": [...]}) live here once so every bench emits the same schema and a format tweak
// (a new top-level field, say) lands everywhere at once.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/isa.hpp"

#ifndef RANM_BUILD_TYPE
#define RANM_BUILD_TYPE "unknown"
#endif
#ifndef RANM_CXX_FLAGS
#define RANM_CXX_FLAGS "unknown"
#endif

namespace ranm::benchutil {

/// True when RANM_SMOKE is set non-empty and not "0": CI smoke runs
/// shrink sweeps/repetitions but still exercise every path and emit the
/// full JSON schema.
inline bool smoke_mode() {
  const char* env = std::getenv("RANM_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// First line of a shell command's output ("" when it fails or prints
/// nothing).
inline std::string command_line(const char* command) {
  std::string line;
  if (FILE* pipe = popen(command, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) line = buf;
    pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// `s` as a JSON string literal (quotes and backslashes escaped; control
/// characters dropped).
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Where and how a report was measured: the commit of the working tree
/// (plus whether tracked files differed from it), the compiler, build
/// type and compiler flags the bench was built with, the CPU model and its
/// hardware threads, the level the dispatched kernels ran at
/// (util/isa.hpp), and the repetition statistic behind the timings.
inline std::string provenance_json(const std::string& statistic) {
  const std::string commit =
      command_line("git rev-parse HEAD 2>/dev/null");
  const bool dirty = !command_line(
                          "git status --porcelain --untracked-files=no "
                          "2>/dev/null")
                          .empty();
  std::string cpu;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; cpu.empty() && std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
    }
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"commit\": " + json_string(commit.empty() ? "unknown" : commit) +
         ", \"dirty\": " + (dirty ? "true" : "false") +
         ", \"compiler\": " + json_string(compiler) +
         ", \"build_type\": " + json_string(RANM_BUILD_TYPE) +
         ", \"flags\": " + json_string(RANM_CXX_FLAGS) +
         ", \"cpu\": " + json_string(cpu.empty() ? "unknown" : cpu) +
         ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"isa\": " + json_string(std::string(isa_name(kernel_isa()))) +
         ", \"statistic\": " + json_string(statistic) + "}";
}

/// Writes the per-PR report: each entry of `rows` is one pre-rendered
/// JSON object, stamped with provenance_json(statistic). Every bench
/// states how its timings were reduced from repetitions. Failure to open
/// the path is reported on stderr, not fatal — the bench's table output
/// already happened.
inline void write_json_report(const std::string& path,
                              const std::string& bench, bool smoke,
                              const std::vector<std::string>& rows,
                              const std::string& statistic) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench.c_str(),
                 path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"bench\": \"" << bench << "\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"provenance\": " << provenance_json(statistic) << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    " << rows[i] << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace ranm::benchutil
