#include "span.hpp"

#include <time.h>

#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

namespace trace {
namespace {

std::atomic<bool> g_enabled{false};

struct Buffer {
  std::vector<Record> recs;
  std::int32_t open = -1;  ///< innermost open span on this thread
  int tid = 0;
};

// Buffers outlive their threads (the farm's workers exit after every
// run), so the registry owns them and threads keep a raw pointer.
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;
thread_local Buffer* t_buf = nullptr;

Buffer& local_buffer() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    t_buf = g_buffers.back().get();
    t_buf->tid = static_cast<int>(g_buffers.size());
    t_buf->recs.reserve(1 << 14);
  }
  return *t_buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  index_ = static_cast<std::int32_t>(b.recs.size());
  b.recs.push_back(Record{name, b.open, now_ns(), 0});
  b.open = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  Buffer& b = *t_buf;
  Record& r = b.recs[static_cast<std::size_t>(index_)];
  r.t1_ns = now_ns();
  b.open = r.parent;
}

std::map<std::string, NameTotals> summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, NameTotals> out;
  for (const auto& b : g_buffers) {
    std::vector<std::int64_t> child_ns(b->recs.size(), 0);
    for (const Record& r : b->recs) {
      if (r.parent >= 0) {
        child_ns[static_cast<std::size_t>(r.parent)] += r.t1_ns - r.t0_ns;
      }
    }
    for (std::size_t i = 0; i < b->recs.size(); ++i) {
      const Record& r = b->recs[i];
      NameTotals& t = out[r.name];
      const double dur = static_cast<double>(r.t1_ns - r.t0_ns) * 1e-9;
      t.count += 1;
      t.total_s += dur;
      t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
    }
  }
  return out;
}

std::map<std::string, double> layer_self_seconds(
    const std::map<std::string, NameTotals>& by_name) {
  std::map<std::string, double> out;
  for (const auto& [name, t] : by_name) {
    out[name.substr(0, name.find('.'))] += t.self_s;
  }
  return out;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) {
    b->recs.clear();
    b->open = -1;
  }
}

bool write_chrome_trace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::int64_t base = 0;
  bool have_base = false;
  for (const auto& b : g_buffers) {
    for (const Record& r : b->recs) {
      if (!have_base || r.t0_ns < base) base = r.t0_ns;
      have_base = true;
    }
  }
  std::fputs("[\n", f);
  bool first = true;
  for (const auto& b : g_buffers) {
    for (const Record& r : b->recs) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                   first ? "" : ",\n", r.name, b->tid,
                   static_cast<double>(r.t0_ns - base) * 1e-3,
                   static_cast<double>(r.t1_ns - r.t0_ns) * 1e-3);
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace trace
}  // namespace perfbench
