// The repository benchmark's entry point: parses the run arguments, runs one
// workload and prints its result as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <string>

#include "bench.h"

namespace perfbench {

void RunResult::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

double ProcessCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double HeapInUseMb() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

namespace {

// One run of the probe kernel: ordered-map inserts and lookups over
// pseudo-random keys (allocation and pointer chasing, like the library's
// own work), about 0.2 ms on an uncontended core.
double ProbeKernelMicros() {
  Clock::time_point start = Clock::now();
  std::map<std::uint32_t, std::uint32_t> m;
  std::uint32_t x = 2463534242u;
  std::uint64_t sink = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return x;
  };
  for (int i = 0; i < 1024; ++i) m[next() % 4096] = x;
  for (int i = 0; i < 2048; ++i) {
    auto it = m.find(next() % 4096);
    if (it != m.end()) sink += it->second;
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return MicrosSince(start);
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Best of two runs of the probe kernel on the calling thread's CPU.
double ProbeMicros() {
  return std::min(ProbeKernelMicros(), ProbeKernelMicros());
}

}  // namespace

QuietCpu::QuietCpu() : cpus_(AllowedCpus()) {}

double QuietCpu::MaybeRepin() {
  if (picked_ && MicrosSince(last_) < kRepinMicros) return factor_;
  if (cpus_.empty()) {
    factor_ = kReferenceMicros / ProbeMicros();
  } else {
    int best = cpus_[0];
    double best_us = 0;
    for (int c : cpus_) {
      PinTo(c);
      double us = ProbeMicros();
      if (c == cpus_[0] || us < best_us) {
        best = c;
        best_us = us;
      }
    }
    PinTo(best);
    factor_ = kReferenceMicros / best_us;
  }
  last_ = Clock::now();
  picked_ = true;
  return factor_;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

int Trace::Open(const char* name) {
  double now = std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
                   .count();
  int parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back({name, now, now, parent});
  int index = static_cast<int>(records_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Trace::Close(int index) {
  records_[index].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  stack_.pop_back();
}

std::uint64_t CounterDelta::Get(const std::string& name) const {
  auto it = delta_.counters.find(name);
  return it == delta_.counters.end() ? 0 : it->second;
}

double DeviationPct(double a, double b) {
  return b == 0 ? 0 : 100.0 * std::fabs(a - b) / b;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"svc.call_us", "us"},
      {"svc.handle_us", "us"},
      {"svc.transport_us", "us"},
      {"svc.parse_us", "us"},
      {"svc.scenario_us", "us"},
      {"svc.engine_us", "us"},
      {"svc.serialize_us", "us"},
      {"svc.dispatch_us", "us"},
      {"svc.rejected", "count"},
      {"svc.degraded", "count"},
      {"svc.reconcile_err_pct", "%"},
      {"par.batch_us", "us"},
      {"par.batch_speedup", "ratio"},
      {"memo.hit_rate", "ratio"},
      {"memo.hits", "count"},
      {"memo.misses", "count"},
      {"memo.installs", "count"},
      {"memo.evictions", "count"},
      {"memo.hit_us", "us"},
      {"memo.miss_us", "us"},
      {"memo.write_us", "us"},
      {"core.decide_us", "us"},
      {"core.rewrite_us", "us"},
      {"core.search_ms", "ms"},
      {"core.mono_ms", "ms"},
      {"core.report_residual_ms", "ms"},
      {"core.reconcile_err_pct", "%"},
      {"search.instances", "count"},
      {"search.mono.pairs", "count"},
      {"search.us_per_instance", "us"},
      {"chase.chain_us", "us"},
      {"chase.view_inverse.facts_added", "count"},
      {"views.apply_us", "us"},
      {"cq.containment_us", "us"},
      {"cq.eval_us", "us"},
      {"cq.hom.attempts", "count"},
      {"cq.hom.matches", "count"},
      {"cq.hom.attempts_per_match", "ratio"},
      {"data.insert_us_per_tuple", "us"},
      {"datalog.tuples_per_s", "1/s"},
      {"datalog.hom_attempts_per_tuple", "ratio"},
      {"datalog.tc_tuples", "count"},
      {"fo.holds_us", "us"},
      {"so.assignments_per_s", "1/s"},
      {"obs.trace_overhead_pct", "%"},
      {"error_rate", "ratio"},
  };
  return kMetrics;
}

void AddPerLayer(const std::map<std::string, double>& measured,
                 RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = measured.find(name);
    result->Add(name, it == measured.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : measured) {
    bool known = false;
    for (const auto& m : PerLayerMetrics()) known = known || m.first == name;
    if (!known) {
      std::cerr << "perfbench: unlisted per-layer metric " << name << "\n";
      std::abort();
    }
  }
}

void AddEndToEnd(const EndToEnd& e, double setup_s, RunResult* result) {
  result->Add("ops_per_s", e.ops_per_s, "1/s");
  result->Add("p50_us", e.p50_us, "us");
  result->Add("tail_us", e.tail_us, "us");
  result->Add("cpu_us_per_op", e.cpu_us_per_op, "us");
  result->Add("setup_s", setup_s, "s");
  result->Add("heap_mb", e.heap_mb, "MB");
}

EndToEnd Summarize(const PassCosts& c, double tail_quantile) {
  EndToEnd e;
  double n = static_cast<double>(c.wall_us.size());
  double total_us = Sum(c.wall_us);
  e.ops_per_s = total_us > 0 ? n / (total_us / 1e6) : 0;
  e.p50_us = Median(c.wall_us);
  e.tail_us = Quantile(c.wall_us, tail_quantile);
  e.cpu_us_per_op = n > 0 ? Sum(c.cpu_us) / n : 0;
  e.heap_mb = Median(c.heap_mb);
  return e;
}

double TraceOverheadPct(const PassCosts& untraced, const PassCosts& traced) {
  // Compare only the inputs both loops reached.
  std::size_t n = std::min(untraced.wall_us.size(), traced.wall_us.size());
  double a = 0, b = 0;
  for (std::size_t k = 0; k < n; ++k) {
    a += untraced.wall_us[k];
    b += traced.wall_us[k];
  }
  return a > 0 ? 100.0 * (b / a - 1.0) : 0;
}

namespace {

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<serve|battery|eval_tc|eval_fo|eval_so> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 120) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  RunResult result;
  if (args.workload == "serve") {
    result = RunServe(args);
  } else if (args.workload == "battery") {
    result = RunBattery(args);
  } else if (args.workload == "eval_tc") {
    result = RunEvalTc(args);
  } else if (args.workload == "eval_fo") {
    result = RunEvalFo(args);
  } else if (args.workload == "eval_so") {
    result = RunEvalSo(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  PrintResult(result);
  return 0;
}
