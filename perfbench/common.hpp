// Shared vocabulary of the benchmark workloads: options, per-phase
// tallies, percentiles and the metric list a run reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "span.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest sizes that still run every code path and every check
  /// (the self-test); timings from a smoke run mean nothing.
  bool smoke = false;
};

/// Nearest-rank percentile of @p v (sorted copy); 0 for no samples.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * n));
  idx = idx == 0 ? 0 : idx - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Samples strictly above the nearest-rank @p q percentile.
[[nodiscard]] inline long long samples_beyond(std::size_t n, double q) {
  auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  idx = idx == 0 ? 0 : idx - 1;
  return n == 0 ? 0 : static_cast<long long>(n - 1 - std::min(idx, n - 1));
}

/// Highest percentile (in steps of 0.1 %, at most 99.9) that leaves at
/// least ten samples beyond it; 0 when there are fewer than 11 samples.
[[nodiscard]] inline double highest_supported_percentile(std::size_t n) {
  for (int p = 999; p >= 500; --p) {
    if (samples_beyond(n, p / 1000.0) >= 10) return p / 10.0;
  }
  return 0.0;
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Wall and CPU time of one timed region: CPU time of the process, or
/// of the calling thread alone when other threads run unrelated work
/// at the same time (the farm's two trial workers).
class Stopwatch {
 public:
  explicit Stopwatch(bool this_thread = false)
      : this_thread_(this_thread), wall0_(Clock::now()), cpu0_(cpu()) {}
  [[nodiscard]] double wall_s() const {
    return seconds_between(wall0_, Clock::now());
  }
  [[nodiscard]] double cpu_s() const { return cpu() - cpu0_; }

 private:
  [[nodiscard]] double cpu() const {
    return this_thread_ ? thread_cpu_s() : process_cpu_s();
  }
  bool this_thread_;
  Clock::time_point wall0_;
  double cpu0_;
};

/// Per-op samples kept apart per kind of op (campaign point; user and
/// capture):
/// the kinds' times differ by up to 4x, so a percentile of the mix
/// would sit between two kinds and jump with their proportions.
struct KindSamples {
  std::vector<std::vector<double>> by_kind;

  void add(std::size_t kind, double v) {
    if (by_kind.size() <= kind) by_kind.resize(kind + 1);
    by_kind[kind].push_back(v);
  }
  void merge(const KindSamples& o) {
    for (std::size_t k = 0; k < o.by_kind.size(); ++k) {
      for (const double v : o.by_kind[k]) add(k, v);
    }
  }
  /// Mean over kinds of each kind's @p q percentile.
  [[nodiscard]] double mean_percentile(double q) const {
    double sum = 0.0;
    int kinds = 0;
    for (const auto& v : by_kind) {
      if (v.empty()) continue;
      sum += percentile(v, q);
      ++kinds;
    }
    return kinds > 0 ? sum / kinds : 0.0;
  }
};

/// What one measured phase of a workload produced.  A step is one
/// iteration of the workload's closed loop (a farm sweep, a terminal
/// round, a fleet tick); an op is the unit its throughput counts (a
/// trial, a round, a session frame).
struct Tally {
  long long steps = 0;
  long long ops = 0;
  /// Operations attempted (trials, rounds, ticks, admits, reconfigures)
  /// and how many of them threw or failed a check.
  long long attempted = 0;
  long long failed = 0;
  /// Wall and process CPU seconds spent inside steps (excluding the
  /// benchmark's own output checks between steps).
  double busy_s = 0.0;
  double cpu_s = 0.0;
  /// Thread-seconds the workload had available for its steps: busy_s
  /// times the worker count (the denominator of unattributed_frac).
  double thread_s = 0.0;
  /// Wall and CPU microseconds of every op-level event the workload
  /// times (trials, rounds, ticks).
  KindSamples latency_us, cpu_us;
  /// ops / busy_s and ops / cpu_s of every measurement block merged in.
  std::vector<double> block_rates, block_cpu_rates;

  /// Account one timed event of kind @p kind.
  void add_event(std::size_t kind, double wall_s, double cpu_s_used) {
    latency_us.add(kind, wall_s * 1e6);
    cpu_us.add(kind, cpu_s_used * 1e6);
  }
  /// Account a timed region of steps run by @p workers threads.
  void add_busy(double wall_s, double cpu_s_used, int workers = 1) {
    busy_s += wall_s;
    thread_s += wall_s * workers;
    cpu_s += cpu_s_used;
  }
  void merge(const Tally& o) {
    steps += o.steps;
    ops += o.ops;
    attempted += o.attempted;
    failed += o.failed;
    busy_s += o.busy_s;
    cpu_s += o.cpu_s;
    thread_s += o.thread_s;
    latency_us.merge(o.latency_us);
    cpu_us.merge(o.cpu_us);
    const auto n = static_cast<double>(o.ops);
    block_rates.push_back(ratio(n, o.busy_s));
    block_cpu_rates.push_back(ratio(n, o.cpu_s));
  }
  /// Throughputs: the @p q percentile of the block rates (default the
  /// median), so host contention that hits a few blocks does not move
  /// them.
  [[nodiscard]] double ops_per_s(double q = 0.5) const {
    return block_rates.empty() ? ratio(static_cast<double>(ops), busy_s)
                               : percentile(block_rates, q);
  }
  [[nodiscard]] double ops_per_cpu_s(double q = 0.5) const {
    return block_cpu_rates.empty() ? ratio(static_cast<double>(ops), cpu_s)
                                   : percentile(block_cpu_rates, q);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark run.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  /// Free-form detail printed before the result line (one line each).
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL " + why);
  }
};

/// The three workloads implement this; run_workload (main.cpp) drives
/// set-up, checks and the measured phases identically for all of them.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the measured phase needs (inputs, boards,
  /// caches, warm-up steps).  Called several times; the last call's
  /// state is the one measured.
  virtual void setup() = 0;
  /// Correctness checks made before any timing.  Counts each checked
  /// op in @p r.attempted and each mismatch in @p r.failed.
  virtual void check(Result& r) = 0;
  /// Run closed-loop steps for about @p seconds, adding to @p t.
  /// Every step's outputs are checked; a mismatch counts as failed.
  /// Spans are recorded when trace::enabled().
  virtual void run(double seconds, Tally& t) = 0;
  /// Zero the workload's own counters before a measured phase.
  virtual void reset_counters() = 0;
  /// The workload's own named end-to-end figures of an untraced phase
  /// (the common ones are computed by run_workload from @p t).
  virtual void end_to_end(const Tally& t, std::vector<Metric>& own) = 0;
  /// Per-layer metrics of the traced blocks of a run, written into
  /// @p m (which holds every per-layer name, preset to 0).
  virtual void per_layer(const Tally& traced,
                         const std::map<std::string, trace::NameTotals>& spans,
                         std::map<std::string, double>& m) = 0;
};

std::unique_ptr<Workload> make_link_campaign(const Options& o);
std::unique_ptr<Workload> make_mapped_terminal(const Options& o);
std::unique_ptr<Workload> make_fleet_serve(const Options& o);

/// Self seconds of span @p name per step of @p t (0 if absent).
[[nodiscard]] inline double self_per_step(
    const std::map<std::string, trace::NameTotals>& spans,
    const std::string& name, const Tally& t) {
  const auto it = spans.find(name);
  if (it == spans.end() || t.steps == 0) return 0.0;
  return it->second.self_s / static_cast<double>(t.steps);
}

[[nodiscard]] inline double span_self(
    const std::map<std::string, trace::NameTotals>& spans,
    const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_s;
}

}  // namespace perfbench
