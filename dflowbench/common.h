#ifndef DFLOWBENCH_COMMON_H_
#define DFLOWBENCH_COMMON_H_

// Shared plumbing for the dflow benchmark: command-line arguments, clocks,
// percentiles, and the report every workload fills in. The last line the
// binary prints is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: value}}
// Everything before it is a human-readable account (environment stamp,
// every metric by name, the correctness checks). run.py checks the metric
// names against BENCHMARK.json, which alone declares names and units.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dflowbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Only generate the inputs and set the system up once, reporting
  /// setup_s: run.py starts several such processes so that setup_s is a
  /// median of cold set-ups.
  bool setup_only = false;
  std::string describe = "unknown";
  /// Directory for the run's files (durable databases, journals); created
  /// and removed by the benchmark.
  std::string work_dir;
};

double NowSec();
/// CPU time of the whole process (all threads), seconds.
double ProcessCpuSec();
/// Releases freed heap memory and restarts the peak-RSS counter, so the
/// peak measured afterwards excludes the benchmark's input generation.
void ResetPeakRss();
/// Peak resident set size since the last ResetPeakRss() (or process
/// start), MB.
double PeakRssMb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// num / den, or 0 when den is not positive.
double Ratio(double num, double den);
/// The values, each preceded by a space.
std::string Join(const std::vector<double>& values);

/// Sleeps until the steady-clock time `deadline_sec` (coarse sleep, then
/// spin-yield for the last 100 us).
void SleepUntil(double deadline_sec);
/// Keeps every hardware thread busy for `seconds`. Run before set-up: on a
/// virtual machine the first second of load after an idle spell runs
/// measurably slower, and that should not land in set-up or timing.
void SpinAllThreads(double seconds);
/// Milliseconds the slowest of one thread per hardware thread takes for a
/// fixed chain of 20M multiply-adds, all running at once: printed before
/// and after the workload, so a run made while the host lent this machine
/// less CPU than usual can be told apart.
double CpuProbeMs();
/// CPU time the host took from this machine's processors (steal), summed
/// over them, in seconds since boot, from /proc/stat (0 if unreadable).
double StealSec();
/// Threads of this process, from /proc/self/status (0 if unreadable).
int ThreadCount();
/// Sets the calling thread's timer slack to the minimum, so SleepUntil
/// wakes close to its deadline.
void TightenTimerSlack();

class Report {
 public:
  /// End-to-end metric (the JSON line of an untraced run). run.py fails
  /// the run when one that BENCHMARK.json declares is missing.
  void EndToEnd(const std::string& name, double value);
  /// Per-layer metric (the JSON line of a traced run). run.py prints a
  /// declared one the workload does not report as 0: the workload does not
  /// exercise that layer.
  void Layer(const std::string& name, double value);
  /// Human-readable only: a figure under its workload-specific name, or one
  /// that may be zero, which the JSON line does not carry.
  void Info(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& text);
  /// Records one correctness check; any failed check makes the run
  /// incorrect and the process exit non-zero.
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Attempt(int64_t attempted, int64_t failed);

  /// Prints the human-readable account, then the JSON line. Returns the
  /// verdict: every check passed.
  bool Print(const Args& args) const;

 private:
  struct InfoLine {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layers_;
  std::vector<InfoLine> info_;
  std::vector<std::string> notes_;
  std::vector<std::string> checks_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// The three workloads. Each fills `report`; a traced run (args.trace)
// reports per-layer metrics, an untraced run end-to-end metrics, and a
// set-up-only run (args.setup_only) setup_s alone. Each times exactly one
// set-up, the first thing the process does after generating its inputs, so
// setup_s includes the process-wide first-use costs (thread pool, FFT
// tables, fresh heap pages).
void RunPalfaSearch(const Args& args, Report* report);
void RunDissemination(const Args& args, Report* report);
void RunWeblabIngest(const Args& args, Report* report);

}  // namespace dflowbench

#endif  // DFLOWBENCH_COMMON_H_
