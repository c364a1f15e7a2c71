#include "common.h"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>
#include <thread>

#include "par/par.h"
#include "simd/simd.h"

#ifndef DFLOWBENCH_BUILD_TYPE
#define DFLOWBENCH_BUILD_TYPE "unknown"
#endif
#ifndef DFLOWBENCH_COMPILER
#define DFLOWBENCH_COMPILER "unknown"
#endif

namespace dflowbench {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // Resets VmHWM to the current resident set.
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // The line is in kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double value : values) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " %.6g", value);
    out += buffer;
  }
  return out;
}

void SleepUntil(double deadline_sec) {
  for (;;) {
    const double wait = deadline_sec - NowSec();
    if (wait <= 0.0) {
      return;
    }
    if (wait > 2e-4) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait - 1e-4));
    } else {
      std::this_thread::yield();
    }
  }
}

void SpinAllThreads(double seconds) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<std::thread> threads;
  const double until = NowSec() + seconds;
  for (unsigned i = 0; i < (hw == 0 ? 1 : hw); ++i) {
    threads.emplace_back([until] {
      volatile uint64_t sink = 0;
      while (NowSec() < until) {
        for (int k = 0; k < 1000; ++k) sink = sink + static_cast<uint64_t>(k);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

double CpuProbeMs() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<double> times(hw == 0 ? 1 : hw);
  std::vector<std::thread> threads;
  for (double& time : times) {
    threads.emplace_back([&time] {
      const double start = NowSec();
      uint64_t x = 1;
      for (int i = 0; i < 20'000'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      volatile uint64_t sink = x;
      (void)sink;
      time = (NowSec() - start) * 1e3;
    });
  }
  for (std::thread& thread : threads) thread.join();
  return *std::max_element(times.begin(), times.end());
}

double StealSec() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  stat >> cpu;
  for (double& tick : ticks) stat >> tick;
  if (cpu != "cpu") return 0.0;
  // Fields: user nice system idle iowait irq softirq steal.
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return 0;
}

void TightenTimerSlack() {
  // The default 50 us slack would dominate the lateness of µs-scale
  // requests; ask the kernel for its finest timer rounding instead.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

void Report::EndToEnd(const std::string& name, double value) {
  end_to_end_[name] = value;
}

void Report::Layer(const std::string& name, double value) {
  layers_[name] = value;
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) {
    correct_ = false;
  }
  checks_.push_back(std::string(ok ? "PASS " : "FAIL ") + name +
                    (detail.empty() ? "" : " (" + detail + ")"));
}

void Report::Attempt(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

bool Report::Print(const Args& args) const {
  const std::string build_type = DFLOWBENCH_BUILD_TYPE;
  const bool release = build_type == "Release";
  std::printf("dflowbench workload=%s seed=%llu seconds=%d trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.setup_only ? " setup-only" : "");
  std::printf("env hardware_threads=%u simd=%s par_threads=%d build_type=%s%s "
              "compiler=\"%s\" git_describe=%s\n",
              std::thread::hardware_concurrency(),
              dflow::simd::IsaName(dflow::simd::ActiveIsa()),
              dflow::par::ConfiguredThreads(), build_type.c_str(),
              release ? "" : " (NOT A RELEASE BUILD: numbers not comparable)",
              DFLOWBENCH_COMPILER, args.describe.c_str());
  for (const std::string& note : notes_) {
    std::printf("note %s\n", note.c_str());
  }
  const std::map<std::string, double>& metrics =
      args.trace ? layers_ : end_to_end_;
  for (const InfoLine& info : info_) {
    std::printf("info   %-34s %14.6g %s\n", info.name.c_str(), info.value,
                info.unit.c_str());
  }
  for (const std::string& check : checks_) {
    std::printf("check %s\n", check.c_str());
  }
  std::printf("attempted=%lld failed=%lld correct=%s\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), correct_ ? "true" : "false");

  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) {
      json += ", ";
    }
    first = false;
    json += '"';
    json += JsonEscape(name);
    json += "\": ";
    json += Number(value);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct_;
}

}  // namespace dflowbench
