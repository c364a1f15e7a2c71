// dflowbench: one command per workload, end-to-end metrics with tracing
// off, per-layer metrics with tracing on. Normally started through
// run.py, which builds this binary first:
//   dflowbench --workload <palfa_search|dissemination|weblab_ingest>
//              --seed <n> --seconds <s> --trace <0|1> [--setup-only <0|1>]
//              [--describe <git describe>] [--work-dir <dir>]
// Exit status is 0 only when every correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

bool ParseArgs(int argc, char** argv, dflowbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          std::fprintf(stderr, "--trace takes 0 or 1\n");
          return false;
        }
        args->trace = value == "1";
      } else if (flag == "--setup-only") {
        if (value != "0" && value != "1") {
          std::fprintf(stderr, "--setup-only takes 0 or 1\n");
          return false;
        }
        args->setup_only = value == "1";
      } else if (flag == "--describe") {
        args->describe = value;
      } else if (flag == "--work-dir") {
        args->work_dir = value;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (args->setup_only && args->trace) {
    std::fprintf(stderr, "--setup-only needs --trace 0\n");
    return false;
  }
  if (args->seconds < 1 || args->seconds > 600) {
    std::fprintf(stderr, "--seconds must be in [1, 600]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dflowbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  if (args.work_dir.empty()) {
    args.work_dir = "dflowbench-work";
  }
  std::error_code error;
  std::filesystem::remove_all(args.work_dir, error);
  std::filesystem::create_directories(args.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  dflowbench::SpinAllThreads(1.0);
  dflowbench::Report report;
  const double probe_before = args.setup_only ? 0 : dflowbench::CpuProbeMs();
  const double steal_before = dflowbench::StealSec();
  const double wall_before = dflowbench::NowSec();
  if (args.workload == "palfa_search") {
    dflowbench::RunPalfaSearch(args, &report);
  } else if (args.workload == "dissemination") {
    dflowbench::RunDissemination(args, &report);
  } else if (args.workload == "weblab_ingest") {
    dflowbench::RunWeblabIngest(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!args.setup_only) {
    const double steal = dflowbench::StealSec() - steal_before;
    const double wall = dflowbench::NowSec() - wall_before;
    report.Note("host took " + std::to_string(steal) + " s of processor " +
                "time (steal) over the workload's " + std::to_string(wall) +
                " s");
    const double probe_after = dflowbench::CpuProbeMs();
    report.Note("cpu probe " + std::to_string(probe_before) + " ms before, " +
                std::to_string(probe_after) + " ms after the workload; " +
                std::to_string(dflowbench::ThreadCount()) + " threads alive");
  }
  std::filesystem::remove_all(args.work_dir, error);
  return report.Print(args) ? 0 : 1;
}
