// mapped_terminal: the paper's own partition on one thread.  Each user
// owns an SdrBoard (kCompiled array, one shared BatchProgramCache
// attached) and users are served round-robin; one step is one user's
// round:
//   UMTS slice: RakeReceiver::acquire on the DSP, then per finger
//     maps::run_descrambler -> run_despreader (SF 64) -> run_chancorr,
//     then maps::run_combiner;
//   WLAN slice: OfdmReceiver::receive on the DSP, then every data
//     symbol through ofdm::maps::run_fft64_batch;
// each slice inside TimeSlicer::slice.  Users differ in finger count
// {1,3} and WLAN rate {6,54} Mb/s; their captures are generated at
// set-up from the seed.  Every array output is checked bit for bit
// against rake::golden / phy::fft64_fixed, and every round's array
// cycle count against a kEventDriven board's.
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/common/rng.hpp"
#include "src/dedhw/umts_scrambler.hpp"
#include "src/ofdm/golden.hpp"
#include "src/ofdm/maps.hpp"
#include "src/phy/channel.hpp"
#include "src/phy/fft.hpp"
#include "src/phy/ofdm_tx.hpp"
#include "src/phy/umts_tx.hpp"
#include "src/rake/golden.hpp"
#include "src/rake/maps.hpp"
#include "src/rake/receiver.hpp"
#include "src/sdr/board.hpp"
#include "src/xpp/batch.hpp"
#include "src/xpp/compiled.hpp"

namespace perfbench {
namespace {

using rsp::CplxF;
using rsp::CplxI;
using Symbol = std::array<CplxI, rsp::phy::kFftSize>;

constexpr int kSf = 64;
constexpr int kCodeIndex = 3;
constexpr std::uint32_t kScramblingCode = 16;
constexpr int kCaptureSymbols = 64;  ///< UMTS capture length (symbols)
constexpr int kFingerSymbols = 48;   ///< symbols each finger despreads
constexpr std::size_t kPsduBits = 400;
constexpr std::size_t kLeadSamples = 150;

struct UserSpec {
  int fingers = 1;
  int mbps = 6;
};

/// One user's pre-generated inputs for one round.
struct Capture {
  std::vector<CplxF> umts_rx;
  std::vector<CplxF> wlan_rx;
};

/// Everything a round produced on the array (and the DSP-side results
/// that decided what the array was given).
struct RoundOut {
  std::vector<int> delays;
  std::vector<CplxI> weights;  ///< per finger, packed Q10 conj(h1)
  std::vector<std::vector<CplxI>> descrambled, despread, corrected;
  std::vector<CplxI> combined;
  std::size_t frame_start = 0;
  bool synced = false;
  std::vector<Symbol> fft_in, fft_out;
  long long cycles = 0;         ///< array cycles of both slices
  long long config_cycles = 0;  ///< of which configuration (TimeSlicer)
  friend bool operator==(const RoundOut&, const RoundOut&) = default;
};

rsp::rake::RakeConfig rake_config(int fingers) {
  rsp::rake::RakeConfig cfg;
  cfg.scrambling_codes = {kScramblingCode};
  cfg.sf = kSf;
  cfg.code_index = kCodeIndex;
  cfg.paths_per_bs = fingers;
  cfg.pilot_amplitude = 0.5;
  return cfg;
}

Capture make_capture(std::uint64_t seed, int mbps) {
  using namespace rsp;
  Rng rng(seed);
  Capture c;
  phy::BasestationConfig bs;
  bs.scrambling_code = kScramblingCode;
  bs.cpich_gain = 0.5;
  phy::DpchConfig dch;
  dch.sf = kSf;
  dch.code_index = kCodeIndex;
  dch.gain = 0.7;
  dch.bits.resize(128);
  for (auto& b : dch.bits) b = rng.bit() ? 1 : 0;
  bs.channels.push_back(dch);
  phy::UmtsDownlinkTx tx(bs);
  phy::MultipathChannel mp(
      {{2, {0.62, 0.0}, 0.0}, {9, {0.0, 0.55}, 0.0}, {17, {0.39, -0.3}, 0.0}},
      3.84e6);
  c.umts_rx = mp.run(tx.generate(kSf * kCaptureSymbols)[0], 10.0, rng);

  std::vector<std::uint8_t> psdu(kPsduBits);
  for (auto& b : psdu) b = rng.bit() ? 1 : 0;
  phy::OfdmTransmitter otx;
  c.wlan_rx = otx.build_ppdu(psdu, mbps);
  c.wlan_rx.insert(c.wlan_rx.begin(), kLeadSamples, CplxF{0, 0});
  c.wlan_rx = phy::awgn(c.wlan_rx, 24.0, rng);
  return c;
}

/// The n-th data symbol body of a capture whose long training starts
/// at @p lt, quantized to the 10-bit FFT64 input format.
Symbol data_symbol(const std::vector<CplxF>& rx, std::size_t lt, int n) {
  const std::size_t pos = lt + 2 * 64 + 80 + static_cast<std::size_t>(n) * 80 + 16;
  Symbol s{};
  for (std::size_t i = 0; i < s.size(); ++i) {
    const CplxF v = rx[pos + i];
    s[i] = {rsp::saturate(static_cast<std::int64_t>(std::lround(v.real() * 511.0)), 10),
            rsp::saturate(static_cast<std::int64_t>(std::lround(v.imag() * 511.0)), 10)};
  }
  return s;
}

std::vector<std::uint8_t> scrambling_code2(std::size_t n) {
  rsp::dedhw::UmtsScrambler scr(kScramblingCode);
  std::vector<std::uint8_t> code2(n);
  for (auto& c : code2) c = scr.next2();
  return code2;
}

/// One round of @p user on @p board: both slices on the array through
/// @p slicer.
RoundOut play_round(const UserSpec& user, const Capture& cap,
                    rsp::sdr::SdrBoard& board, rsp::sdr::TimeSlicer& slicer) {
  using namespace rsp;
  RoundOut out;
  const auto rk = rake_config(user.fingers);
  const std::size_t n_chips = static_cast<std::size_t>(kSf) * kFingerSymbols;
  const long long cyc0 = board.array().sim().cycle();
  {
    trace::Span span("sdr.umts_slice");
    slicer.slice("UMTS", [&](xpp::ConfigurationManager& mgr) {
      std::vector<rake::FingerInfo> fingers;
      {
        trace::Span s("rake.acquire");
        const rake::RakeReceiver receiver(rk);
        fingers = receiver.acquire(cap.umts_rx, &board.dsp());
      }
      if (fingers.empty()) return;
      std::vector<CplxI> rx_q;
      {
        trace::Span s("rake.quantize");
        rx_q = rake::quantize_chips(cap.umts_rx, rk.quant_scale);
      }
      std::vector<std::uint8_t> code2;
      {
        trace::Span s("dedhw.scrambler");
        code2 = scrambling_code2(n_chips);
      }
      for (const auto& f : fingers) {
        const auto first = rx_q.begin() + f.delay;
        const std::vector<CplxI> aligned(
            first, first + static_cast<std::ptrdiff_t>(n_chips));
        rake::CorrectorWeights w;
        w.conj_h1 = rake::quantize_weight(std::conj(f.channel.h1));
        board.fpga_route(static_cast<long long>(n_chips));
        out.delays.push_back(f.delay);
        out.weights.push_back(w.conj_h1);
        {
          trace::Span s("xpp.descrambler");
          out.descrambled.push_back(
              rake::maps::run_descrambler(mgr, aligned, code2));
        }
        {
          trace::Span s("xpp.despreader");
          out.despread.push_back(rake::maps::run_despreader(
              mgr, out.descrambled.back(), kSf, kCodeIndex));
        }
        {
          trace::Span s("xpp.chancorr");
          out.corrected.push_back(
              rake::maps::run_chancorr(mgr, out.despread.back(), w));
        }
      }
      trace::Span s("xpp.combiner");
      out.combined = rake::maps::run_combiner(mgr, out.corrected);
    });
  }
  {
    trace::Span span("sdr.wlan_slice");
    slicer.slice("WLAN", [&](xpp::ConfigurationManager& mgr) {
      ofdm::OfdmRxConfig cfg;
      cfg.mbps = user.mbps;
      ofdm::OfdmRxResult res;
      {
        trace::Span s("ofdm.rx");
        const ofdm::OfdmReceiver receiver(cfg);
        res = receiver.receive(cap.wlan_rx, kPsduBits, &board.dsp());
      }
      out.synced = res.preamble_found;
      if (!res.preamble_found) return;
      out.frame_start = res.frame_start;
      const int nsym =
          phy::OfdmTransmitter::num_data_symbols(kPsduBits, user.mbps);
      for (int s = 0; s < nsym; ++s) {
        out.fft_in.push_back(data_symbol(cap.wlan_rx, res.frame_start, s));
      }
      board.fpga_route(64LL * nsym);
      trace::Span s("xpp.fft64");
      out.fft_out = ofdm::maps::run_fft64_batch(mgr, out.fft_in);
    });
  }
  board.microcontroller().charge("scheduler", dsp::DspOp::kBranch, 40);
  out.cycles = board.array().sim().cycle() - cyc0;
  const auto& slices = slicer.history();
  out.config_cycles = slices[slices.size() - 1].config_cycles +
                      slices[slices.size() - 2].config_cycles;
  return out;
}

/// The golden expectation for a round: the array stages recomputed by
/// rake::golden and phy::fft64_fixed from the same inputs the array was
/// given.  Returns an empty string when @p got matches, else what
/// differs.
std::string golden_mismatch(const UserSpec& user, const Capture& cap,
                            const RoundOut& got) {
  using namespace rsp;
  const auto rk = rake_config(user.fingers);
  const std::size_t n_chips = static_cast<std::size_t>(kSf) * kFingerSymbols;
  if (got.delays.empty()) return "acquisition found no finger";
  if (static_cast<int>(got.delays.size()) != user.fingers) {
    return "acquired " + std::to_string(got.delays.size()) + " fingers, want " +
           std::to_string(user.fingers);
  }
  const auto rx_q = rake::quantize_chips(cap.umts_rx, rk.quant_scale);
  const auto code2 = scrambling_code2(n_chips);
  std::vector<std::vector<CplxI>> corrected;
  for (std::size_t f = 0; f < got.delays.size(); ++f) {
    const auto first = rx_q.begin() + got.delays[f];
    const std::vector<CplxI> aligned(
        first, first + static_cast<std::ptrdiff_t>(n_chips));
    const auto d = rake::descramble(aligned, code2);
    if (d != got.descrambled[f]) return "descrambler != rake::descramble";
    const auto s = rake::despread(d, kSf, kCodeIndex);
    if (s != got.despread[f]) return "despreader != rake::despread";
    rake::CorrectorWeights w;
    w.conj_h1 = got.weights[f];
    corrected.push_back(rake::channel_correct(s, w));
    if (corrected.back() != got.corrected[f]) {
      return "chancorr != rake::channel_correct";
    }
  }
  if (rake::combine(corrected) != got.combined) return "combiner != rake::combine";
  if (!got.synced) return "802.11a preamble not found";
  const int nsym = phy::OfdmTransmitter::num_data_symbols(kPsduBits, user.mbps);
  if (static_cast<int>(got.fft_out.size()) != nsym) return "FFT64 symbol count";
  for (int s = 0; s < nsym; ++s) {
    const auto& in = got.fft_in[static_cast<std::size_t>(s)];
    if (in != data_symbol(cap.wlan_rx, got.frame_start, s)) return "FFT64 input";
    if (phy::fft64_fixed(in) != got.fft_out[static_cast<std::size_t>(s)]) {
      return "FFT64 != phy::fft64_fixed";
    }
  }
  return {};
}

/// Layer counters summed over every user's board.
struct Counters {
  long long cycles = 0, fires = 0, config_cycles = 0, dsp_instructions = 0;
  long long compiles = 0, compile_refusals = 0, deopts = 0, cache_binds = 0;
  long long replayed_cycles = 0;

  void add(const rsp::sdr::SdrBoard& b) {
    const auto& sim = b.array().sim();
    cycles += sim.cycle();
    fires += sim.total_fires();
    config_cycles += b.array().total_config_cycles();
    dsp_instructions += b.dsp().total_instructions();
    if (const auto* eng = sim.compiled_engine()) {
      const auto& s = eng->stats();
      compiles += s.compiles;
      compile_refusals += s.compile_refusals;
      deopts += s.deopts;
      cache_binds += s.cache_binds;
      replayed_cycles += s.replayed_cycles;
    }
  }
  /// this += sign * o
  void add(const Counters& o, long long sign) {
    cycles += sign * o.cycles;
    fires += sign * o.fires;
    config_cycles += sign * o.config_cycles;
    dsp_instructions += sign * o.dsp_instructions;
    compiles += sign * o.compiles;
    compile_refusals += sign * o.compile_refusals;
    deopts += sign * o.deopts;
    cache_binds += sign * o.cache_binds;
    replayed_cycles += sign * o.replayed_cycles;
  }
};

class MappedTerminal final : public Workload {
 public:
  explicit MappedTerminal(const Options& o)
      : opt_(o), captures_per_user_(o.smoke ? 1 : 2) {
    users_ = {{1, 6}, {3, 54}, {1, 54}, {3, 6}};
  }

  void setup() override {
    using namespace rsp;
    captures_.assign(users_.size(), {});
    for (std::size_t u = 0; u < users_.size(); ++u) {
      for (std::size_t c = 0; c < captures_per_user_; ++c) {
        captures_[u].push_back(make_capture(
            Rng::split(Rng::split(opt_.seed, u), c), users_[u].mbps));
      }
    }
    cache_ = std::make_unique<xpp::BatchProgramCache>();
    boards_.clear();
    slicers_.clear();
    for (std::size_t u = 0; u < users_.size(); ++u) {
      boards_.push_back(std::make_unique<sdr::SdrBoard>(
          xpp::ArrayGeometry{}, xpp::SchedulerKind::kCompiled));
      boards_.back()->array().attach_program_cache(cache_.get());
      slicers_.push_back(
          std::make_unique<sdr::TimeSlicer>(boards_.back()->array()));
    }
    // Warm-up: every user plays every capture once.
    for (std::size_t c = 0; c < captures_per_user_; ++c) {
      for (std::size_t u = 0; u < users_.size(); ++u) {
        (void)play_round(users_[u], captures_[u][c], *boards_[u], *slicers_[u]);
      }
    }
    next_round_ = 0;
  }

  void check(Result& r) override {
    using namespace rsp;
    expected_.assign(users_.size(), {});
    for (std::size_t u = 0; u < users_.size(); ++u) {
      sdr::SdrBoard ref_board(xpp::ArrayGeometry{},
                              xpp::SchedulerKind::kEventDriven);
      sdr::TimeSlicer ref_slicer(ref_board.array());
      for (std::size_t c = 0; c < captures_per_user_; ++c) {
        const Capture& cap = captures_[u][c];
        const RoundOut ref = play_round(users_[u], cap, ref_board, ref_slicer);
        const RoundOut got = play_round(users_[u], cap, *boards_[u], *slicers_[u]);
        r.attempted += 2;
        const std::string why = golden_mismatch(users_[u], cap, ref);
        if (!why.empty()) {
          r.failed += 1;
          r.fail("mapped_terminal: kEventDriven user " + std::to_string(u) +
                 ": " + why);
        }
        if (!(got == ref)) {
          r.failed += 1;
          r.fail("mapped_terminal: kCompiled user " + std::to_string(u) +
                 " capture " + std::to_string(c) +
                 " differs from kEventDriven (outputs or array cycles)");
        }
        expected_[u].push_back(ref);
      }
    }
  }

  void run(double seconds, Tally& t) override {
    const bool traced = trace::enabled();
    const Counters before = counters();
    const auto t0 = Clock::now();
    do {
      // One pass over every user keeps the round mix fixed.
      for (std::size_t u = 0; u < users_.size(); ++u) {
        const std::size_t c = (next_round_ / users_.size()) % captures_per_user_;
        ++next_round_;
        const Stopwatch sw;
        RoundOut out;
        bool threw = false;
        try {
          trace::Span s("step.round");
          out = play_round(users_[u], captures_[u][c], *boards_[u],
                           *slicers_[u]);
        } catch (const std::exception&) {
          threw = true;
        }
        const double dt = sw.wall_s();
        const double dc = sw.cpu_s();
        t.add_busy(dt, dc);
        // One kind per (user, capture): the two captures of a user can
        // differ in array work, and a percentile over both would sit
        // between them.
        t.add_event(u * captures_per_user_ + c, dt, dc);
        t.steps += 1;
        t.ops += 1;
        t.attempted += 1;
        if (threw || !(out == expected_[u][c])) t.failed += 1;
        rounds_[traced] += 1;
        round_cycles_[traced] += out.cycles;
        round_config_cycles_[traced] += out.config_cycles;
      }
    } while (seconds_between(t0, Clock::now()) < seconds);
    acc_[traced].add(counters(), 1);
    acc_[traced].add(before, -1);
  }

  void reset_counters() override {
    for (int i = 0; i < 2; ++i) {
      acc_[i] = {};
      rounds_[i] = round_cycles_[i] = round_config_cycles_[i] = 0;
    }
  }

  void end_to_end(const Tally& t, std::vector<Metric>& own) override {
    own.push_back({"terminal_rounds_per_s", t.ops_per_s(), "1/s"});
    const double rounds = static_cast<double>(rounds_[0]);
    own.push_back({"array_cycles_per_round",
                   ratio(static_cast<double>(round_cycles_[0]), rounds),
                   "cycles"});
    own.push_back({"config_cycles_per_round",
                   ratio(static_cast<double>(round_config_cycles_[0]), rounds),
                   "cycles"});
  }

  void per_layer(const Tally& traced,
                 const std::map<std::string, trace::NameTotals>& spans,
                 std::map<std::string, double>& m) override {
    const Counters& d = acc_[1];
    const double rounds = static_cast<double>(traced.steps);
    double xpp_s = 0.0;
    for (const auto& [name, tot] : spans) {
      if (name.rfind("xpp.", 0) == 0) xpp_s += tot.self_s;
    }
    m["rake.acquire_s"] = self_per_step(spans, "rake.acquire", traced);
    m["ofdm.rx_s"] = self_per_step(spans, "ofdm.rx", traced);
    m["dsp.instructions_per_round"] =
        ratio(static_cast<double>(d.dsp_instructions), rounds);
    m["xpp.exec_s"] = ratio(xpp_s, rounds);
    m["xpp.cycles_per_s"] = ratio(static_cast<double>(d.cycles), xpp_s);
    m["xpp.ns_per_fire"] = ratio(xpp_s * 1e9, static_cast<double>(d.fires));
    m["xpp.compiled.replay_frac"] = ratio(
        static_cast<double>(d.replayed_cycles), static_cast<double>(d.cycles));
    m["xpp.compiled.deopts"] = ratio(static_cast<double>(d.deopts), rounds);
    m["xpp.compiled.cache_binds"] =
        ratio(static_cast<double>(d.cache_binds), rounds);
    // Lifetime totals of the measured boards: compiles happen in the
    // warm-up rounds of set-up, so these move setup_s.
    const Counters life = counters();
    m["xpp.compiled.compiles"] = static_cast<double>(life.compiles);
    m["xpp.compiled.compile_refusals"] =
        static_cast<double>(life.compile_refusals);
    m["xpp.manager.config_cycles"] =
        ratio(static_cast<double>(d.config_cycles), rounds);
    m["sdr.umts_slice_s"] = self_per_step(spans, "sdr.umts_slice", traced);
    m["sdr.wlan_slice_s"] = self_per_step(spans, "sdr.wlan_slice", traced);
    m["xpp.cache.hit_frac"] = cache_hit_frac();
  }

 private:
  Counters counters() const {
    Counters c;
    for (const auto& b : boards_) c.add(*b);
    return c;
  }
  double cache_hit_frac() const {
    const auto s = cache_->stats();
    return ratio(static_cast<double>(s.hits), static_cast<double>(s.lookups));
  }

  Options opt_;
  std::size_t captures_per_user_;
  std::vector<UserSpec> users_;
  std::vector<std::vector<Capture>> captures_;
  std::vector<std::vector<RoundOut>> expected_;
  std::unique_ptr<rsp::xpp::BatchProgramCache> cache_;
  std::vector<std::unique_ptr<rsp::sdr::SdrBoard>> boards_;
  std::vector<std::unique_ptr<rsp::sdr::TimeSlicer>> slicers_;
  std::size_t next_round_ = 0;
  Counters acc_[2];
  long long rounds_[2] = {0, 0};
  long long round_cycles_[2] = {0, 0};
  long long round_config_cycles_[2] = {0, 0};
};

}  // namespace

std::unique_ptr<Workload> make_mapped_terminal(const Options& o) {
  return std::make_unique<MappedTerminal>(o);
}

}  // namespace perfbench
