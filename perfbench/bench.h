// Shared plumbing of the repository benchmark (see README.md): run
// arguments, timing, order statistics, the in-memory span recorder of the
// traced runs, and the result line every workload prints.
#ifndef VQDR_PERFBENCH_BENCH_H_
#define VQDR_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One reported metric. Every value is printed with all its digits.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main(), which prints it as the last
/// line of standard output.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one checked operation; a false `ok` counts it as failed and
  /// prints `what` on stderr so a mismatch is diagnosable.
  void Check(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Process CPU time (all threads) in microseconds.
double ProcessCpuMicros();

/// Heap the process holds allocated, in MiB: glibc's in-use bytes over
/// every arena plus its mmapped chunks. Unlike the resident set it leaves
/// out freed memory the allocator keeps, whose amount depends on how the
/// threads' allocations happened to interleave.
double HeapInUseMb();

// Host-speed normalization. The host runs each of this machine's CPUs
// beside other tenants' work. A CPU whose neighbour is busy runs
// memory-heavy code (like this library's) about 1.5x slower, for seconds to
// minutes at a time, each CPU on its own schedule, while plain arithmetic
// keeps its speed: the slowdown is in the shared caches, not the clock.
// Every timing an end-to-end metric is built from is therefore scaled by
// kReferenceMicros over the time of a fixed, memory-heavy probe kernel
// (benchmark code, not library code) run on the same CPU just before it.
// The figures are microseconds on an uncontended core: a change to the
// library moves them, a change in the neighbours' load mostly does not.
// Per-layer metrics stay raw.

/// The probe kernel's time, in microseconds, on an uncontended core of the
/// machine the first baseline ran on: the scale of every normalized time.
inline constexpr double kReferenceMicros = 230;

/// Keeps the calling thread on the least contended CPU: every kRepinMicros
/// it probes each CPU it may use and pins itself to the fastest, so a
/// measurement runs where the program gets a whole core. Only the
/// single-threaded workloads use it; the serve workload's threads are left
/// to the scheduler.
class QuietCpu {
 public:
  QuietCpu();
  /// Re-picks the CPU when the last pick is older than kRepinMicros, and
  /// returns the host factor of the CPU the thread now runs on.
  double MaybeRepin();

 private:
  static constexpr double kRepinMicros = 100000;
  std::vector<int> cpus_;
  Clock::time_point last_{};
  bool picked_ = false;
  double factor_ = 1;
};

/// Number of setup repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 15;

/// Linear-interpolated quantile q in [0,1] of `v` (copied, then sorted);
/// 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double Sum(const std::vector<double>& v);

/// Runs `reset` then `setup` kSetupRepeats times and returns the median
/// wall time of `setup` in seconds, normalized when `quiet` is non-null
/// (single-threaded workloads re-pick a quiet CPU before each repetition).
/// `reset` tears down what the previous repetition built, outside the
/// timing; the objects the last repetition builds are the ones the workload
/// keeps.
template <typename Reset, typename Setup>
double TimeSetup(QuietCpu* quiet, Reset&& reset, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    reset();
    double factor = quiet != nullptr ? quiet->MaybeRepin() : 1.0;
    Clock::time_point start = Clock::now();
    setup();
    times.push_back(SecondsSince(start) * factor);
  }
  return Median(std::move(times));
}

/// In-memory span recorder for the traced runs: each span is a name, a
/// start and an end on the steady clock, and the span that encloses it.
/// Spans wrap the benchmark's own calls into one library module each and
/// are only read after the timed region ends.
class Trace {
 public:
  struct Record {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };

  /// Opens a span; returns its index (the parent of spans opened before the
  /// matching Close).
  int Open(const char* name);
  void Close(int index);

  const std::vector<Record>& records() const { return records_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// Runs `fn` and returns its wall time in microseconds: the duration of
/// the span named `name` it runs in when `trace` is non-null.
template <typename F>
double Timed(Trace* trace, const char* name, F&& fn) {
  if (trace == nullptr) {
    Clock::time_point start = Clock::now();
    fn();
    return MicrosSince(start);
  }
  int index = trace->Open(name);
  fn();
  trace->Close(index);
  const Trace::Record& r = trace->records()[index];
  return r.end_us - r.start_us;
}

/// Exact deltas of the library's obs counters across a region.
class CounterDelta {
 public:
  CounterDelta() : before_(vqdr::obs::SnapshotMetrics()) {}
  /// Movement of `name` since construction (0 when it did not move).
  std::uint64_t Get(const std::string& name) const;
  void Finish() { delta_ = vqdr::obs::SnapshotDelta(before_); }

 private:
  vqdr::obs::MetricsSnapshot before_;
  vqdr::obs::MetricsSnapshot delta_;
};

/// Relative deviation |a - b| / b in percent (0 when b is 0).
double DeviationPct(double a, double b);

/// Tolerance, in percent of the measured total, within which a traced
/// run's per-layer medians must add up to the measured end-to-end median.
inline constexpr double kReconcileTolerancePct = 15.0;

/// The per-layer metric names every traced run reports, in output order.
/// A workload that does not call a layer reports that layer's metrics as 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills in every per-layer metric `measured` lacks with 0, orders them as
/// PerLayerMetrics() does and appends them to `result`.
void AddPerLayer(const std::map<std::string, double>& measured,
                 RunResult* result);

/// The end-to-end metrics of one untraced pass, shared by every workload.
struct EndToEnd {
  double ops_per_s = 0;
  double p50_us = 0;
  double tail_us = 0;
  double cpu_us_per_op = 0;
  double heap_mb = 0;
};
void AddEndToEnd(const EndToEnd& e, double setup_s, RunResult* result);

/// Per-input costs of a single-threaded measurement: the minimum normalized
/// wall and CPU time each input took over the passes the run made. The
/// fastest pass is the one least disturbed by the neighbours' load.
struct PassCosts {
  std::vector<double> wall_us;  // one entry per input that ran at least once
  std::vector<double> cpu_us;
  std::vector<double> heap_mb;  // heap in use while the input's result lived
};

/// ops_per_s is inputs per second of summed cost; p50 and the tail are
/// quantiles of the per-input costs; heap_mb is the median heap in use.
EndToEnd Summarize(const PassCosts& c, double tail_quantile);

/// Tracing overhead in percent: summed traced cost over summed untraced.
double TraceOverheadPct(const PassCosts& untraced, const PassCosts& traced);

/// Calls `op(k)` for k = 0 .. inputs-1, pass after pass, until `seconds` of
/// wall time have passed, timing each call, then hands its result to
/// `check(k, result)` outside the timed region. On the first pass the heap
/// in use is read after each call, while its result is alive. With a
/// non-null `trace`, each call sits in a span named `span`.
template <typename Op, typename Check>
PassCosts RunPasses(double seconds, std::size_t inputs, Op&& op,
                    Check&& check, Trace* trace = nullptr,
                    const char* span = nullptr) {
  std::vector<double> wall(inputs, -1), cpu(inputs, -1), heap(inputs, -1);
  QuietCpu quiet;
  Clock::time_point start = Clock::now();
  for (bool more = true; more;) {
    for (std::size_t k = 0; k < inputs; ++k) {
      if (SecondsSince(start) >= seconds) {
        more = false;
        break;
      }
      double factor = quiet.MaybeRepin();
      double cpu0 = ProcessCpuMicros();
      Clock::time_point t0 = Clock::now();
      int span_index = trace != nullptr ? trace->Open(span) : -1;
      auto result = op(k);
      if (trace != nullptr) trace->Close(span_index);
      double us = MicrosSince(t0) * factor;
      double cpu_us = (ProcessCpuMicros() - cpu0) * factor;
      if (wall[k] < 0 || us < wall[k]) wall[k] = us;
      if (cpu[k] < 0 || cpu_us < cpu[k]) cpu[k] = cpu_us;
      if (heap[k] < 0) heap[k] = HeapInUseMb();
      check(k, result);
    }
  }
  PassCosts c;
  for (std::size_t k = 0; k < inputs; ++k) {
    if (wall[k] < 0) continue;
    c.wall_us.push_back(wall[k]);
    c.cpu_us.push_back(cpu[k]);
    c.heap_mb.push_back(heap[k]);
  }
  return c;
}

/// Share of a traced run's seconds given to each of its two timed loops
/// (untraced, then traced); the rest goes to the layer probes.
inline constexpr double kTracedLoopShare = 0.3;

/// The skeleton of the single-threaded workloads. One untimed warm-up call,
/// then either the untraced passes (end-to-end metrics) or the traced run:
/// the same passes untraced and traced (their difference is the tracing
/// overhead) followed by `probe(layers, result)`, which fills in the
/// per-layer metrics.
template <typename Op, typename Check, typename Probe>
RunResult RunSingleThreaded(const Args& args, double setup_s,
                            std::size_t inputs, double tail_quantile,
                            RunResult result, Op&& op, Check&& check,
                            Probe&& probe) {
  auto checked = [&](std::size_t k, const auto& r) { check(k, r, result); };
  checked(0, op(0));
  if (!args.trace) {
    PassCosts c = RunPasses(args.seconds, inputs, op, checked);
    AddEndToEnd(Summarize(c, tail_quantile), setup_s, &result);
    return result;
  }
  double phase = args.seconds * kTracedLoopShare;
  PassCosts untraced = RunPasses(phase, inputs, op, checked);
  Trace trace;
  PassCosts traced = RunPasses(phase, inputs, op, checked, &trace, "op");
  std::map<std::string, double> layers;
  layers["obs.trace_overhead_pct"] = TraceOverheadPct(untraced, traced);
  probe(layers, result);
  layers["error_rate"] = static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted);
  AddPerLayer(layers, &result);
  return result;
}

// Workload entry points (serve.cc, battery.cc, eval.cc).
RunResult RunServe(const Args& args);
RunResult RunBattery(const Args& args);
RunResult RunEvalTc(const Args& args);
RunResult RunEvalFo(const Args& args);
RunResult RunEvalSo(const Args& args);

}  // namespace perfbench

#endif  // VQDR_PERFBENCH_BENCH_H_
