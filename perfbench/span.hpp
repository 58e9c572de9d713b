// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark measures every layer from the outside: it opens a Span
// around each call it makes into a layer's public functions (the
// library itself is not instrumented).  Spans nest per thread; a span's
// self time is its duration minus the durations of its direct
// children.  Recording is off unless set_enabled(true), and a disabled
// Span costs one relaxed atomic load.  Spans stay in per-thread memory
// until the run ends; summarize() folds them into per-name self times
// and write_chrome_trace() dumps them in chrome://tracing format.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds used so far by the whole process (every thread, exited
/// ones included) and by the calling thread.  The bounded metrics are
/// CPU time: on a shared virtual host the wall time of the same work
/// swings by 2x while other tenants steal the vCPUs, and CPU time does
/// not count the stolen time.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

namespace trace {

/// Whether Span records anything.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

struct Record {
  const char* name = nullptr;  ///< static string: "<layer>.<what>"
  std::int32_t parent = -1;    ///< index in the same thread's buffer
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// RAII span.  @p name must be a string literal of the form
/// "<layer>.<what>" (the layer is the text before the first '.'); the
/// workload's root span per step uses the layer "step".
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;
};

/// Per-name aggregate over every recorded span of every thread.
struct NameTotals {
  long long count = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed durations minus direct children
};

/// Fold all recorded spans (all threads) by name.
[[nodiscard]] std::map<std::string, NameTotals> summarize();

/// Self seconds summed per layer (name prefix before the first '.').
[[nodiscard]] std::map<std::string, double> layer_self_seconds(
    const std::map<std::string, NameTotals>& by_name);

/// Drop every recorded span.
void clear();

/// Write every recorded span as a chrome://tracing JSON array to
/// @p path.  Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path);

}  // namespace trace
}  // namespace perfbench
