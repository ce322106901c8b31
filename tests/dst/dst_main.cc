// cosmos_dst: the deterministic simulation-testing driver.
//
//   cosmos_dst --seed=17            one scenario, full repro detail
//   cosmos_dst --begin=1 --count=50 a seed range (the dst_smoke suite)
//
// Every seed deterministically derives a topology, a workload, a query mix
// and a fault schedule (src/harness/scenario.h); the run is checked against
// a ground-truth oracle (src/harness/runner.h). On failure the driver
// prints the seed, greedily shrinks the event timeline to a minimal
// still-failing scenario, and dumps it together with the CBN event trace.
// Exit code 0 = every seed passed.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "harness/runner.h"
#include "harness/scenario.h"

namespace {

struct Flags {
  uint64_t begin = 1;
  uint64_t count = 50;
  bool single_seed = false;
  bool shrink = true;
  size_t shrink_budget = 400;
  std::string repro_dir;
  bool verbose = false;
  bool print_scenario = false;
  // Write the Chrome trace of this run to the given file (single-seed use;
  // load the JSON in chrome://tracing or Perfetto).
  std::string trace_out;
};

bool ParseUint64(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t value = 0;
    if (std::strncmp(arg, "--seed=", 7) == 0 && ParseUint64(arg + 7, &value)) {
      flags->begin = value;
      flags->count = 1;
      flags->single_seed = true;
    } else if (std::strncmp(arg, "--begin=", 8) == 0 &&
               ParseUint64(arg + 8, &value)) {
      flags->begin = value;
    } else if (std::strncmp(arg, "--count=", 8) == 0 &&
               ParseUint64(arg + 8, &value)) {
      flags->count = value;
    } else if (std::strncmp(arg, "--shrink-budget=", 16) == 0 &&
               ParseUint64(arg + 16, &value)) {
      flags->shrink_budget = static_cast<size_t>(value);
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      flags->shrink = false;
    } else if (std::strncmp(arg, "--repro-dir=", 12) == 0) {
      flags->repro_dir = arg + 12;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      flags->verbose = true;
    } else if (std::strcmp(arg, "--print-scenario") == 0) {
      flags->print_scenario = true;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      flags->trace_out = arg + 12;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::fprintf(stderr,
                   "usage: cosmos_dst [--seed=N | --begin=N --count=K] "
                   "[--no-shrink] [--shrink-budget=N] [--repro-dir=DIR] "
                   "[--trace-out=FILE] [--verbose] "
                   "[--print-scenario]\n");
      return false;
    }
  }
  return true;
}

std::string FailureText(uint64_t seed, const cosmos::DstScenario& minimized,
                        const cosmos::DstReport& report, size_t shrink_runs) {
  std::string out = cosmos::StrFormat(
      "seed %llu FAILED — reproduce with: cosmos_dst --seed=%llu\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(seed));
  out += report.Summary() + "\n";
  for (const std::string& f : report.failures) {
    out += "  CHECK FAILED: " + f + "\n";
  }
  if (shrink_runs > 0) {
    out += cosmos::StrFormat(
        "--- minimized scenario (%zu events, %zu initial queries) ---\n",
        minimized.events.size(), minimized.initial_queries.size());
  } else {
    out += "--- scenario ---\n";
  }
  out += minimized.ToString();
  if (!report.trace.empty()) {
    out += cosmos::StrFormat("--- CBN trace (last %zu events) ---\n",
                             report.trace.size());
    for (const std::string& line : report.trace) out += line + "\n";
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(content.c_str(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  cosmos::DstOptions options;
  uint64_t failed = 0;
  for (uint64_t seed = flags.begin; seed < flags.begin + flags.count; ++seed) {
    cosmos::DstScenario scenario = cosmos::GenerateScenario(seed, options);
    if (flags.print_scenario) {
      std::fputs(scenario.ToString().c_str(), stdout);
    }
    cosmos::DstRunOptions first_run;
    if (!flags.trace_out.empty()) {
      first_run.capture_trace = true;
      first_run.capture_metrics_json = true;
    }
    cosmos::DstReport report = cosmos::RunScenario(scenario, first_run);
    if (!flags.trace_out.empty()) {
      if (WriteFile(flags.trace_out, report.chrome_trace_json)) {
        std::printf("chrome trace written to %s\n", flags.trace_out.c_str());
      }
      if (WriteFile(flags.trace_out + ".metrics.json", report.metrics_json)) {
        std::printf("metrics snapshot written to %s.metrics.json\n",
                    flags.trace_out.c_str());
      }
    }
    if (report.ok) {
      if (flags.verbose || flags.single_seed) {
        std::printf("seed %llu: %s\n",
                    static_cast<unsigned long long>(seed),
                    report.Summary().c_str());
      }
      continue;
    }
    ++failed;

    cosmos::DstScenario minimized = scenario;
    size_t shrink_runs = 0;
    if (flags.shrink) {
      minimized = cosmos::ShrinkScenario(
          scenario,
          [](const cosmos::DstScenario& candidate) {
            return !cosmos::RunScenario(candidate).ok;
          },
          flags.shrink_budget);
      shrink_runs = flags.shrink_budget;
    }
    // Re-run the minimized form traced: its CBN events go into the report,
    // its Chrome trace and metrics snapshot into the repro artifacts.
    cosmos::DstRunOptions run_options;
    run_options.capture_trace = true;
    run_options.capture_metrics_json = !flags.repro_dir.empty();
    cosmos::DstReport detailed = cosmos::RunScenario(minimized, run_options);
    // Shrinking preserves *some* failure, not necessarily the same one; if
    // the minimized run somehow passes (flaky shrink predicate would be a
    // bug in itself), fall back to the original report.
    const cosmos::DstReport& final_report =
        detailed.ok ? report : detailed;
    const cosmos::DstScenario& final_scenario =
        detailed.ok ? scenario : minimized;
    std::string text =
        FailureText(seed, final_scenario, final_report, shrink_runs);
    std::fputs(text.c_str(), stdout);

    if (!flags.repro_dir.empty()) {
      std::string stem = flags.repro_dir +
                         cosmos::StrFormat("/seed-%llu",
                                           static_cast<unsigned long long>(
                                               seed));
      if (WriteFile(stem + ".txt", text)) {
        std::printf("repro written to %s.txt\n", stem.c_str());
      }
      // The failing run's Chrome trace and final metrics snapshot ride
      // along so CI can upload them as debugging artifacts.
      if (WriteFile(stem + ".trace.json", detailed.chrome_trace_json)) {
        std::printf("chrome trace written to %s.trace.json\n", stem.c_str());
      }
      if (!detailed.metrics_json.empty() &&
          WriteFile(stem + ".metrics.json", detailed.metrics_json)) {
        std::printf("metrics snapshot written to %s.metrics.json\n",
                    stem.c_str());
      }
    }
  }

  if (flags.count > 1 || flags.verbose) {
    std::printf("%llu/%llu seeds passed\n",
                static_cast<unsigned long long>(flags.count - failed),
                static_cast<unsigned long long>(flags.count));
  }
  return failed == 0 ? 0 : 1;
}
