// rsp_perfbench: the repository benchmark.
//
//   rsp_perfbench --workload <link_campaign|mapped_terminal|fleet_serve>
//                 --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Each run sets the workload up many times (setup_s is their p90),
// checks its outputs before any timing, then measures closed-loop
// steps.  With --trace 0 it measures untraced for --seconds and reports
// the end-to-end metrics (host CPU time; the wall-clock figures are
// printed as detail lines); with --trace 1 it alternates untraced and
// traced blocks over --seconds and reports the per-layer metrics (span
// self times around every call into a layer, plus the layers' own
// counters).  The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it records the host and build.  Traced runs also
// write their spans to .bench_out/trace-<workload>.json.
#include <sched.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

#ifndef RSP_PERFBENCH_BUILD_TYPE
#define RSP_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RSP_PERFBENCH_SIMD
#define RSP_PERFBENCH_SIMD "unknown"
#endif

/// Every per-layer metric a traced run reports, on every workload (a
/// layer a workload does not exercise reports 0: that workload is the
/// layer's control).  Must match BENCHMARK.json's per_layer list.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"phy.umts_tx_s", "s"},
    {"phy.ofdm_tx_s", "s"},
    {"phy.channel_s", "s"},
    {"phy.samples_per_s", "1/s"},
    {"rake.acquire_s", "s"},
    {"rake.despread_s", "s"},
    {"rake.acquire_ok_frac", "ratio"},
    {"ofdm.rx_s", "s"},
    {"ofdm.sync_ok_frac", "ratio"},
    {"dsp.instructions_per_round", "count"},
    {"xpp.exec_s", "s"},
    {"xpp.cycles_per_s", "1/s"},
    {"xpp.ns_per_fire", "ns"},
    {"xpp.compiled.replay_frac", "ratio"},
    {"xpp.compiled.compiles", "count"},
    {"xpp.compiled.compile_refusals", "count"},
    {"xpp.compiled.deopts", "count"},
    {"xpp.compiled.cache_binds", "count"},
    {"xpp.manager.config_cycles", "cycles"},
    {"xpp.batch.batched_frac", "ratio"},
    {"xpp.batch.guard_exits", "count"},
    {"xpp.batch.gathers", "count"},
    {"xpp.cache.hit_frac", "ratio"},
    {"sdr.umts_slice_s", "s"},
    {"sdr.wlan_slice_s", "s"},
    {"fleet.run_cycles_s", "s"},
    {"fleet.io_s", "s"},
    {"fleet.admit_s", "s"},
    {"fleet.reconfigure_s", "s"},
    {"fleet.evict_s", "s"},
    {"fleet.hit_admit_frac", "ratio"},
    {"farm.busy_frac", "ratio"},
    {"unattributed_frac", "ratio"},
    {"trace_overhead_frac", "ratio"},
    // The workloads' own end-to-end figures, from the untraced blocks.
    {"rake_trials_per_s", "1/s"},
    {"wlan_trials_per_s", "1/s"},
    {"terminal_rounds_per_s", "1/s"},
    {"array_cycles_per_round", "cycles"},
    {"config_cycles_per_round", "cycles"},
    {"fleet_frames_per_s", "1/s"},
    {"fleet_tick_p50_us", "us"},
    {"fleet_tick_p99_us", "us"},
    {"admit_p50_us", "us"},
    {"admit_p90_us", "us"},
    {"reconfigure_p50_us", "us"},
    {"reconfigure_p90_us", "us"},
    {"admit_samples", "count"},
    {"reconfigure_samples", "count"},
    // Wall-clock counterparts of the end-to-end metrics.
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"latency_p99_us", "us"},
    {"op_cpu_p50_us", "us"},
    {"op_cpu_p99_us", "us"},
    {"setup_wall_s", "s"},
    {"latency_samples", "count"},
};

/// The host alternates between a fast and a slow speed for seconds at
/// a time (the same op's CPU time differs by about 1.5x between them),
/// and a run's share of each varies from 0 to 100 %.  A median lands in
/// either state depending on that share; the slow state's figures are
/// tight and nearly every run has some of it.  So the bounded figures
/// describe the slow state: the 10th percentile of the blocks' ops per
/// CPU-second, and the 90th percentile of set-up times and (per op
/// kind) of op CPU times.
constexpr double kSlowRateQuantile = 0.1;
constexpr double kSlowTimeQuantile = 0.9;

/// Layer self times should sum to the traced steps' thread-time within
/// this share; a traced run whose unattributed_frac exceeds it says so.
constexpr double kUnattributedTolerance = 0.10;

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload <link_campaign|mapped_terminal|"
               "fleet_serve> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], "missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else {
        usage(argv[0], "unknown argument '" + a + "'");
      }
    } catch (const std::logic_error&) {
      usage(argv[0], "bad value for " + a);
    }
  }
  if (!have_workload) usage(argv[0], "--workload is required");
  if (!(o.seconds > 0.0)) usage(argv[0], "--seconds must be positive");
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string context_line(const Options& o) {
  std::string j = "{\"context\": {";
  rsp::bench::appendf(j, "%s, ", rsp::bench::host_context_json().c_str());
  rsp::bench::appendf(
      j,
      "\"nproc\": %d, \"build_type\": \"%s\", \"rsp_simd\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"smoke\": %s}}",
      nproc(), RSP_PERFBENCH_BUILD_TYPE, RSP_PERFBENCH_SIMD, o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), num(o.seconds).c_str(),
      o.trace ? 1 : 0, o.smoke ? "true" : "false");
  return j;
}

std::string result_line(const Result& r) {
  std::string j;
  rsp::bench::appendf(j,
                      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                      "\"metrics\": {",
                      r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    rsp::bench::appendf(j, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", m.name.c_str(),
                        num(m.value).c_str(), m.unit.c_str());
  }
  j += "}}";
  return j;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "link_campaign") return make_link_campaign(o);
  if (o.workload == "mapped_terminal") return make_mapped_terminal(o);
  if (o.workload == "fleet_serve") return make_fleet_serve(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

Result run_workload(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  Result r;

  // Set-up time is sampled many times across the run — twice before
  // the checks on the instance that is then measured, and about twenty
  // times on throwaway instances between measured blocks — and the
  // kSlowTimeQuantile reported: host speed drifts over seconds, so
  // samples taken only at the start would all share that moment's
  // speed.
  std::vector<double> setup_s, setup_wall_s;
  const auto timed_setup = [&](Workload& x) {
    const Stopwatch sw;
    x.setup();
    setup_s.push_back(sw.cpu_s());
    setup_wall_s.push_back(sw.wall_s());
  };
  const auto probe_setup = [&] {
    if (o.smoke) return;
    const auto probe = make_workload(o);
    timed_setup(*probe);
  };
  for (int i = 0; i < (o.smoke ? 1 : 2); ++i) timed_setup(*w);

  w->check(r);

  // The measured phase runs in blocks of about kBlockSeconds; each
  // block is one throughput sample (see Tally::ops_per_s).
  constexpr double kBlockSeconds = 0.5;
  constexpr int kProbes = 20;
  const auto run_block = [&](double s, Tally& into) {
    Tally b;
    w->run(s, b);
    into.merge(b);
  };
  Tally untraced, traced;
  w->reset_counters();
  if (!o.trace) {
    const int blocks = std::max(1, static_cast<int>(o.seconds / kBlockSeconds));
    const int probe_every = std::max(1, blocks / kProbes);
    for (int b = 0; b < blocks; ++b) {
      run_block(o.seconds / blocks, untraced);
      if (b % probe_every == probe_every - 1) probe_setup();
    }
  } else {
    // Alternate untraced and traced blocks so slow drift of the host
    // affects both halves alike; their ratio is the tracing overhead.
    const int blocks =
        std::max(1, static_cast<int>(o.seconds / (2.0 * kBlockSeconds)));
    const double block_s = o.seconds / (2.0 * blocks);
    const int probe_every = std::max(1, blocks / kProbes);
    trace::clear();
    for (int b = 0; b < blocks; ++b) {
      run_block(block_s, untraced);
      trace::set_enabled(true);
      run_block(block_s, traced);
      trace::set_enabled(false);
      if (b % probe_every == probe_every - 1) probe_setup();
    }
  }
  r.attempted += untraced.attempted + traced.attempted;
  r.failed += untraced.failed + traced.failed;
  if (untraced.failed + traced.failed > 0) {
    r.fail(std::to_string(untraced.failed + traced.failed) +
           " measured operations threw or failed their output check");
  }
  if (r.attempted == 0) r.fail("no operation attempted");

  std::vector<Metric> own;
  w->end_to_end(untraced, own);
  std::size_t samples = 0;
  const auto& kinds = untraced.cpu_us.by_kind;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    samples += kinds[k].size();
    char line[240];
    std::snprintf(line, sizeof(line),
                  "op kind %zu: %zu samples, CPU p10/p50/p90 %.1f/%.1f/%.1f "
                  "us, wall p50 %.1f us, highest percentile with >= 10 "
                  "samples beyond: p%.1f",
                  k, kinds[k].size(), percentile(kinds[k], 0.1),
                  percentile(kinds[k], 0.5), percentile(kinds[k], 0.9),
                  percentile(untraced.latency_us.by_kind[k], 0.5),
                  highest_supported_percentile(kinds[k].size()));
    r.notes.push_back(line);
  }
  // Wall-clock counterparts of the bounded CPU-time metrics: what a
  // user of an uncontended host would see, unbounded here.
  own.push_back({"ops_per_s", untraced.ops_per_s(), "1/s"});
  own.push_back({"latency_p50_us", untraced.latency_us.mean_percentile(0.50),
                 "us"});
  own.push_back({"latency_p90_us", untraced.latency_us.mean_percentile(0.90),
                 "us"});
  own.push_back({"latency_p99_us", untraced.latency_us.mean_percentile(0.99),
                 "us"});
  // The CPU-time medians are detail, not bounded: they land in either
  // host speed state depending on the run's mix (kSlowRateQuantile).
  own.push_back({"op_cpu_p50_us", untraced.cpu_us.mean_percentile(0.50), "us"});
  own.push_back({"ops_per_cpu_s_p50", untraced.ops_per_cpu_s(), "1/s"});
  own.push_back({"op_cpu_p99_us", untraced.cpu_us.mean_percentile(0.99), "us"});
  own.push_back({"setup_wall_s", median(setup_wall_s), "s"});
  own.push_back({"latency_samples", static_cast<double>(samples), "count"});
  std::string rates = "block rates (ops per CPU-second):";
  for (const double b : untraced.block_cpu_rates) {
    rates += " " + num(std::round(b));
  }
  r.notes.push_back(rates);
  r.notes.push_back("setup samples " + std::to_string(setup_s.size()));

  if (!o.trace) {
    r.metrics.push_back(
        {"setup_s", percentile(setup_s, kSlowTimeQuantile), "s"});
    r.metrics.push_back({"ops_per_cpu_s_p10",
                         untraced.ops_per_cpu_s(kSlowRateQuantile), "1/s"});
    r.metrics.push_back({"op_cpu_p90_us",
                         untraced.cpu_us.mean_percentile(kSlowTimeQuantile),
                         "us"});
    for (const Metric& m : own) {
      r.notes.push_back("detail " + m.name + " = " + num(m.value) + " " + m.unit);
    }
    return r;
  }

  const auto spans = trace::summarize();
  std::map<std::string, double> m;
  for (const auto& [name, unit] : kPerLayer) m[name] = 0.0;
  w->per_layer(traced, spans, m);
  for (const Metric& e : own) m[e.name] = e.value;
  double layered = 0.0;
  for (const auto& [layer, self] : trace::layer_self_seconds(spans)) {
    if (layer != "step") layered += self;
  }
  m["unattributed_frac"] = 1.0 - ratio(layered, traced.thread_s);
  if (m["unattributed_frac"] > kUnattributedTolerance) {
    r.notes.push_back("unattributed_frac " + num(m["unattributed_frac"]) +
                      " exceeds the stated tolerance " +
                      num(kUnattributedTolerance));
  }
  m["trace_overhead_frac"] =
      ratio(untraced.ops_per_cpu_s(), traced.ops_per_cpu_s()) - 1.0;
  for (const auto& [name, unit] : kPerLayer) {
    r.metrics.push_back({name, m[name], unit});
  }
  for (const auto& [name, tot] : spans) {
    r.notes.push_back("span " + name + " count " + std::to_string(tot.count) +
                      " total_s " + num(tot.total_s) + " self_s " +
                      num(tot.self_s));
  }
  ::mkdir(".bench_out", 0755);
  const std::string path = ".bench_out/trace-" + o.workload + ".json";
  if (!trace::write_chrome_trace(path)) {
    r.notes.push_back("could not write " + path);
  }
  return r;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  perfbench::Result r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rsp_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::printf("%s\n", perfbench::context_line(o).c_str());
  std::printf("%s\n", perfbench::result_line(r).c_str());
  return 0;
}
