// link_campaign: a slice of the BER-curve campaign through ScenarioFarm
// on 2 worker threads.  One step is one sweep over eight campaign
// points (rake trials at fingers {1,3} x Es/N0 {-8,0} dB, 802.11a
// trials at {6,54} Mb/s x Es/N0 {8,20} dB), each point one farm run.
// The sweeps cycle through a small pool of seeds whose serial
// reference (farm::run_serial) is computed before timing, so every
// trial of every sweep is checked against it.
//
// The traced kernels below repeat farm::kernels::RakeTrial/WlanTrial
// call for call, with a span around each call into a layer; the only
// rewrite is RakeReceiver::receive, which is receive_with_fingers(rx,
// acquire(rx, nullptr)) — the same two calls the library makes.
// Their TrialResults must equal the reference for every traced seed.
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/common/rng.hpp"
#include "src/farm/farm.hpp"
#include "src/farm/kernels.hpp"
#include "src/ofdm/golden.hpp"
#include "src/phy/channel.hpp"
#include "src/phy/modulation.hpp"
#include "src/phy/ofdm_tx.hpp"
#include "src/phy/umts_tx.hpp"
#include "src/rake/receiver.hpp"

namespace perfbench {
namespace {

using rsp::farm::TrialResult;
using rsp::farm::kernels::RakeTrial;
using rsp::farm::kernels::WlanTrial;

constexpr int kThreads = 2;

struct Point {
  bool rake = true;
  RakeTrial rk;
  WlanTrial wl;
};

std::vector<Point> campaign_points() {
  std::vector<Point> pts;
  for (const int fingers : {1, 3}) {
    for (const double esn0 : {-8.0, 0.0}) {
      Point p;
      p.rake = true;
      p.rk.fingers = fingers;
      p.rk.esn0_db = esn0;
      pts.push_back(p);
    }
  }
  for (const int mbps : {6, 54}) {
    for (const double esn0 : {8.0, 20.0}) {
      Point p;
      p.rake = false;
      p.wl.mbps = mbps;
      p.wl.esn0_db = esn0;
      pts.push_back(p);
    }
  }
  return pts;
}

/// Outcome counters of the traced kernels (shared by both workers).
struct TraceCounters {
  std::atomic<long long> acquire_attempts{0}, acquire_ok{0};
  std::atomic<long long> sync_attempts{0}, sync_ok{0};
  std::atomic<long long> phy_samples{0};
};

TrialResult traced_rake(const RakeTrial& k, std::uint64_t seed,
                        TraceCounters& n) {
  using namespace rsp;
  Rng rng(seed);
  phy::BasestationConfig bs;
  bs.scrambling_code = 16;
  bs.cpich_gain = 0.5;
  phy::DpchConfig ch;
  ch.sf = 64;
  ch.code_index = 3;
  ch.gain = 0.7;
  ch.bits.resize(256);
  for (auto& b : ch.bits) b = rng.bit() ? 1 : 0;
  bs.channels.push_back(ch);
  std::vector<CplxF> chips;
  {
    trace::Span s("phy.umts_tx");
    phy::UmtsDownlinkTx tx(bs);
    chips = tx.generate(64 * k.symbols)[0];
  }
  std::vector<CplxF> rx;
  {
    trace::Span s("phy.channel");
    phy::MultipathChannel mp(
        {{2, {0.62, 0.0}, 0.0}, {9, {0.0, 0.55}, 0.0}, {17, {0.39, -0.3}, 0.0}},
        3.84e6);
    rx = mp.run(chips, k.esn0_db, rng);
  }
  n.phy_samples += static_cast<long long>(chips.size() + rx.size());
  rake::RakeConfig cfg;
  cfg.scrambling_codes = {16};
  cfg.sf = 64;
  cfg.code_index = 3;
  cfg.paths_per_bs = k.fingers;
  cfg.pilot_amplitude = 0.5;
  std::vector<rake::FingerInfo> fingers;
  rake::RakeOutput out;
  {
    trace::Span s("rake.acquire");
    const rake::RakeReceiver receiver(cfg);
    fingers = receiver.acquire(rx, nullptr);
  }
  ++n.acquire_attempts;
  if (!fingers.empty()) ++n.acquire_ok;
  {
    trace::Span s("rake.despread");
    const rake::RakeReceiver receiver(cfg);
    out = receiver.receive_with_fingers(rx, fingers);
  }
  TrialResult r;
  r.frames = 1;
  if (out.bits.empty()) {
    r.frame_errors = 1;
    return r;
  }
  r.bits = out.bits.size();
  for (std::size_t i = 0; i < out.bits.size(); ++i) {
    r.bit_errors += (out.bits[i] != ch.bits[i % ch.bits.size()]) ? 1 : 0;
  }
  r.frame_errors = r.bit_errors > 0 ? 1 : 0;
  return r;
}

TrialResult traced_wlan(const WlanTrial& k, std::uint64_t seed,
                        TraceCounters& n) {
  using namespace rsp;
  Rng rng(seed);
  std::vector<std::uint8_t> psdu(k.psdu_bits);
  for (auto& b : psdu) b = rng.bit() ? 1 : 0;
  std::vector<CplxF> capture;
  {
    trace::Span s("phy.ofdm_tx");
    phy::OfdmTransmitter tx;
    capture = tx.build_ppdu(psdu, k.mbps);
  }
  std::vector<CplxF> lead(150, CplxF{0, 0});
  capture.insert(capture.begin(), lead.begin(), lead.end());
  {
    trace::Span s("phy.channel");
    capture = phy::awgn(capture, k.esn0_db, rng);
  }
  n.phy_samples += static_cast<long long>(2 * capture.size());
  ofdm::OfdmRxConfig cfg;
  cfg.mbps = k.mbps;
  ofdm::OfdmRxResult res;
  {
    trace::Span s("ofdm.rx");
    const ofdm::OfdmReceiver receiver(cfg);
    res = receiver.receive(capture, psdu.size());
  }
  const bool synced = res.preamble_found && res.psdu.size() == psdu.size();
  ++n.sync_attempts;
  if (synced) ++n.sync_ok;
  TrialResult r;
  r.frames = 1;
  r.bits = psdu.size();
  if (!synced) {
    r.bit_errors = r.bits;
    r.frame_errors = 1;
    return r;
  }
  for (std::size_t i = 0; i < psdu.size(); ++i) {
    r.bit_errors += (res.psdu[i] != psdu[i]) ? 1 : 0;
  }
  r.frame_errors = r.bit_errors > 0 ? 1 : 0;
  return r;
}

class LinkCampaign final : public Workload {
 public:
  explicit LinkCampaign(const Options& o)
      : opt_(o),
        points_(campaign_points()),
        trials_per_point_(o.smoke ? 2 : 16),
        pool_(o.smoke ? 1 : 3) {
    for (auto& walls : point_wall_s_) walls.assign(points_.size(), {});
    // Smoke runs keep the frames short; the trials still take every
    // code path.
    if (o.smoke) {
      for (auto& p : points_) {
        p.rk.symbols = 32;
        p.wl.psdu_bits = 200;
      }
    }
  }

  void setup() override {
    // phy::constellation() fills a process-wide table on first use
    // without a lock, so two workers demapping their first symbols of a
    // modulation at once race on it (ThreadSanitizer reports the race;
    // it has crashed runs).  Fill the table on this thread before any
    // worker starts.
    using rsp::phy::Modulation;
    for (const Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                               Modulation::kQam16, Modulation::kQam64}) {
      (void)rsp::phy::constellation(m);
    }
    farm_ = std::make_unique<rsp::farm::ScenarioFarm>(
        rsp::farm::FarmOptions{kThreads, 256});
    // Warm-up sweep: first touch of code, allocator and farm threads.
    Tally t;
    sweep(0, false, t);
  }

  void check(Result& r) override {
    reference_.assign(pool_, {});
    for (std::size_t k = 0; k < pool_; ++k) {
      for (std::size_t p = 0; p < points_.size(); ++p) {
        const auto ref = rsp::farm::run_serial(
            trials_per_point_, base_seed(k, p), kernel_for(points_[p]));
        const auto par = farm_->run(trials_per_point_, base_seed(k, p),
                                    kernel_for(points_[p]));
        r.attempted += static_cast<long long>(trials_per_point_);
        if (!(par.agg.total() == ref.agg.total()) ||
            par.per_task != ref.per_task) {
          r.failed += static_cast<long long>(trials_per_point_);
          r.fail("link_campaign: farm aggregate != run_serial at point " +
                 std::to_string(p) + " sweep seed " + std::to_string(k));
        }
        reference_[k].push_back(ref.per_task);
      }
    }
  }

  void run(double seconds, Tally& t) override {
    const bool traced = trace::enabled();
    const auto t0 = Clock::now();
    do {
      sweep(next_sweep_++ % pool_, traced, t);
    } while (seconds_between(t0, Clock::now()) < seconds);
  }

  void reset_counters() override {
    for (auto& walls : point_wall_s_) walls.assign(points_.size(), {});
    n_.acquire_attempts = n_.acquire_ok = 0;
    n_.sync_attempts = n_.sync_ok = 0;
    n_.phy_samples = 0;
  }

  void end_to_end(const Tally& /*t*/, std::vector<Metric>& own) override {
    own.push_back({"rake_trials_per_s",
                   typical_rate([](const Point& p) { return p.rake; }), "1/s"});
    own.push_back({"wlan_trials_per_s",
                   typical_rate([](const Point& p) { return !p.rake; }), "1/s"});
  }

  void per_layer(const Tally& traced,
                 const std::map<std::string, trace::NameTotals>& spans,
                 std::map<std::string, double>& m) override {
    const double trials = static_cast<double>(traced.ops);
    const auto per_trial = [&](const char* name) {
      return ratio(span_self(spans, name), trials);
    };
    m["phy.umts_tx_s"] = per_trial("phy.umts_tx");
    m["phy.ofdm_tx_s"] = per_trial("phy.ofdm_tx");
    m["phy.channel_s"] = per_trial("phy.channel");
    m["phy.samples_per_s"] =
        ratio(static_cast<double>(n_.phy_samples.load()),
              span_self(spans, "phy.umts_tx") + span_self(spans, "phy.ofdm_tx") +
                  span_self(spans, "phy.channel"));
    m["rake.acquire_s"] = per_trial("rake.acquire");
    m["rake.despread_s"] = per_trial("rake.despread");
    m["rake.acquire_ok_frac"] =
        ratio(static_cast<double>(n_.acquire_ok.load()),
              static_cast<double>(n_.acquire_attempts.load()));
    m["ofdm.rx_s"] = per_trial("ofdm.rx");
    m["ofdm.sync_ok_frac"] = ratio(static_cast<double>(n_.sync_ok.load()),
                                   static_cast<double>(n_.sync_attempts.load()));
    const auto it = spans.find("farm.trial");
    m["farm.busy_frac"] =
        ratio(it == spans.end() ? 0.0 : it->second.total_s, traced.thread_s);
  }

 private:
  [[nodiscard]] std::uint64_t base_seed(std::size_t k, std::size_t p) const {
    return rsp::Rng::split(rsp::Rng::split(opt_.seed, k), p);
  }

  /// Trials per second of a typical sweep over the points @p pick
  /// selects: their trials over the sum of each one's median farm-run
  /// wall time in the untraced phase, so the farm runs that lose a
  /// worker to preemption on a shared host stay out of the figure.
  template <typename Pick>
  [[nodiscard]] double typical_rate(Pick pick) const {
    double sweep_s = 0.0;
    std::size_t picked = 0;
    for (std::size_t p = 0; p < points_.size(); ++p) {
      if (!pick(points_[p])) continue;
      sweep_s += percentile(point_wall_s_[0][p], 0.5);
      ++picked;
    }
    return ratio(static_cast<double>(trials_per_point_ * picked), sweep_s);
  }

  static rsp::farm::TrialKernel kernel_for(const Point& p) {
    if (p.rake) {
      return [k = p.rk](std::uint64_t seed, std::size_t) { return k(seed); };
    }
    return [k = p.wl](std::uint64_t seed, std::size_t) { return k(seed); };
  }

  /// One sweep over every campaign point with sweep seed @p k.  Each
  /// trial is timed on its worker; untraced runs call the library's
  /// kernels, traced runs their spanned copies above.
  void sweep(std::size_t k, bool traced, Tally& t) {
    for (std::size_t p = 0; p < points_.size(); ++p) {
      const Point& pt = points_[p];
      std::vector<double> wall(trials_per_point_, 0.0);
      std::vector<double> cpu(trials_per_point_, 0.0);
      const auto kernel = [&](std::uint64_t seed, std::size_t i) {
        const Stopwatch sw(/*this_thread=*/true);
        TrialResult r;
        if (traced) {
          trace::Span s("farm.trial");
          r = pt.rake ? traced_rake(pt.rk, seed, n_) : traced_wlan(pt.wl, seed, n_);
        } else {
          r = pt.rake ? pt.rk(seed) : pt.wl(seed);
        }
        wall[i] = sw.wall_s();
        cpu[i] = sw.cpu_s();
        return r;
      };
      const Stopwatch sw;
      long long bad = 0;
      try {
        const auto res = farm_->run(trials_per_point_, base_seed(k, p), kernel);
        if (!reference_.empty()) {
          const auto& ref = reference_[k][p];
          for (std::size_t i = 0; i < ref.size(); ++i) {
            bad += res.per_task[i] == ref[i] ? 0 : 1;
          }
        }
      } catch (const std::exception&) {
        bad = static_cast<long long>(trials_per_point_);
      }
      const double dt = sw.wall_s();
      t.add_busy(dt, sw.cpu_s(), kThreads);
      t.ops += static_cast<long long>(trials_per_point_);
      t.attempted += static_cast<long long>(trials_per_point_);
      t.failed += bad;
      for (std::size_t i = 0; i < trials_per_point_; ++i) {
        t.add_event(p, wall[i], cpu[i]);
      }
      point_wall_s_[traced][p].push_back(dt);
    }
    t.steps += 1;
  }

  Options opt_;
  std::vector<Point> points_;
  std::size_t trials_per_point_;
  std::size_t pool_;
  std::unique_ptr<rsp::farm::ScenarioFarm> farm_;
  /// reference_[sweep seed][point] = run_serial per-task results.
  std::vector<std::vector<std::vector<TrialResult>>> reference_;
  std::size_t next_sweep_ = 0;
  /// [traced][point] wall seconds of every farm run.
  std::vector<std::vector<double>> point_wall_s_[2];
  TraceCounters n_;
};

}  // namespace

std::unique_ptr<Workload> make_link_campaign(const Options& o) {
  return std::make_unique<LinkCampaign>(o);
}

}  // namespace perfbench
