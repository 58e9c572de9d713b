// fleet_serve: FleetManager on 2 worker threads serving 64 sessions in
// two CRC groups — 32 descrambler sessions and 32 despreader_config(16,1)
// sessions — against a program cache warmed at set-up.  One step is one
// frame tick: feed 256 chips to every session, run_cycles(256), drain
// every output.  Every kChurnEvery ticks, between ticks, churn swaps one
// descrambler and one despreader session to the other configuration
// (the groups stay 32/32) and evicts and re-admits one session.
//
// Checks: every drained word is compared with the golden model
// (rake::descramble / rake::despread of what that session was fed);
// before timing, the whole recorded script of every session — feeds,
// runs, drains and reconfigures since its admission — is replayed on a
// per-instance scalar kCompiled ConfigurationManager and must drain the
// same words at every tick; the fleet must never compile after warm-up
// and every admission must hit the cache.
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/common/rng.hpp"
#include "src/dedhw/umts_scrambler.hpp"
#include "src/fleet/fleet.hpp"
#include "src/rake/golden.hpp"
#include "src/rake/maps.hpp"
#include "src/xpp/manager.hpp"

namespace perfbench {
namespace {

using rsp::xpp::Word;

constexpr int kThreads = 2;
constexpr std::size_t kFrameChips = 256;
constexpr int kDespreadSf = 16;
constexpr int kDespreadCode = 1;

/// One pre-generated 256-chip input frame and its golden outputs.
struct Chunk {
  std::vector<Word> data, code;
  std::vector<Word> descrambled, despread;
};

/// One recorded call on a session, for the per-instance replay.
struct Event {
  enum Kind { kFeed, kRun, kTake, kReconfigure } kind = kFeed;
  int chunk = 0;            ///< kFeed
  bool despreader = false;  ///< kReconfigure: the new configuration
  std::vector<Word> words;  ///< kTake: what the fleet drained
};

/// A session from admission to eviction.
struct Life {
  bool despreader = false;  ///< configuration at admission
  std::vector<Event> events;
};

struct Slot {
  rsp::fleet::SessionId id = rsp::fleet::kNoSession;
  bool despreader = false;
  std::deque<Word> expect;  ///< golden words fed but not yet drained
  int life = -1;            ///< index into lives_ while recording
};

/// Publish @p cfg's steady-state program into @p cache with one
/// throwaway session.
void warm_cache(const rsp::xpp::Configuration& cfg, bool with_code,
                const Chunk& chunk, rsp::xpp::BatchProgramCache* cache) {
  rsp::fleet::FleetOptions opts;
  opts.cache = cache;
  rsp::fleet::FleetManager mgr(opts);
  const auto id = mgr.admit(cfg);
  for (int f = 0; f < 4; ++f) {
    mgr.input(id, "data").feed(chunk.data);
    if (with_code) mgr.input(id, "code").feed(chunk.code);
    mgr.run_cycles(static_cast<long long>(kFrameChips));
  }
}

class FleetServe final : public Workload {
 public:
  explicit FleetServe(const Options& o)
      : opt_(o),
        sessions_(o.smoke ? 8 : 64),
        churn_every_(o.smoke ? 4 : 16),
        check_ticks_(o.smoke ? 10 : 40),
        descr_(rsp::rake::maps::descrambler_config()),
        despr_(rsp::rake::maps::despreader_config(kDespreadSf, kDespreadCode)) {
  }

  void setup() override {
    make_chunks();
    cache_ = std::make_unique<rsp::xpp::BatchProgramCache>();
    warm_cache(descr_, true, chunks_[0], cache_.get());
    warm_cache(despr_, false, chunks_[0], cache_.get());
    rsp::fleet::FleetOptions opts;
    opts.threads = kThreads;
    opts.cache = cache_.get();
    fleet_ = std::make_unique<rsp::fleet::FleetManager>(opts);
    lives_.clear();
    recording_ = true;
    slots_.assign(sessions_, {});
    tick_ = 0;
    churns_ = 0;
    long long misses = 0;
    for (std::size_t s = 0; s < sessions_; ++s) {
      misses += admit(s, s % 2 == 1, nullptr) ? 0 : 1;
    }
    // Warm-up ticks, without churn.
    Tally warm;
    for (int i = 0; i < 8; ++i) tick(warm);
    setup_failed_ = warm.failed + misses;
  }

  void check(Result& r) override {
    Tally t;
    for (int i = 0; i < check_ticks_; ++i) {
      tick(t);
      maybe_churn(t);
    }
    recording_ = false;
    r.attempted += t.attempted;
    r.failed += t.failed + setup_failed_;
    if (t.failed + setup_failed_ > 0) {
      r.fail("fleet_serve: drained words differ from the golden model, or "
             "an admission missed the cache");
    }
    if (churns_ < 2) r.fail("fleet_serve: check window saw fewer than 2 churns");
    // Replay every recorded session on its own scalar kCompiled array.
    for (std::size_t l = 0; l < lives_.size(); ++l) {
      r.attempted += 1;
      const std::string why = replay(lives_[l]);
      if (!why.empty()) {
        r.failed += 1;
        r.fail("fleet_serve: session life " + std::to_string(l) +
               " differs from per-instance kCompiled replay: " + why);
      }
    }
    lives_.clear();
    const auto st = fleet_->stats();
    r.attempted += 1;
    if (st.compiles != 0) {
      r.failed += 1;
      r.fail("fleet_serve: " + std::to_string(st.compiles) +
             " compiles after warm-up");
    }
  }

  void run(double seconds, Tally& t) override {
    const bool traced = trace::enabled();
    const auto before = fleet_->stats();
    const auto t0 = Clock::now();
    do {
      tick(t);
      maybe_churn(t);
    } while (seconds_between(t0, Clock::now()) < seconds);
    const auto after = fleet_->stats();
    t.attempted += 1;
    if (after.compiles != 0) t.failed += 1;
    Delta& d = delta_[traced];
    d.admits += after.admits - before.admits;
    d.reconfigures += after.reconfigures - before.reconfigures;
    d.hit_admits += after.cache_hit_admits - before.cache_hit_admits;
    d.batched += after.batched_cycles - before.batched_cycles;
    d.scalar += after.scalar_cycles - before.scalar_cycles;
    d.guard_exits += after.guard_exits - before.guard_exits;
    d.gathers += after.gathers - before.gathers;
    d.lookups += after.cache.lookups - before.cache.lookups;
    d.hits += after.cache.hits - before.cache.hits;
    d.compiles = after.compiles;
  }

  void reset_counters() override {
    for (int i = 0; i < 2; ++i) {
      delta_[i] = {};
      admit_us_[i].clear();
      reconf_us_[i].clear();
      tick_us_[i].clear();
    }
  }

  void end_to_end(const Tally& t, std::vector<Metric>& own) override {
    own.push_back({"fleet_frames_per_s", t.ops_per_s(), "1/s"});
    own.push_back({"fleet_tick_p50_us", percentile(tick_us_[0], 0.50), "us"});
    own.push_back({"fleet_tick_p99_us", percentile(tick_us_[0], 0.99), "us"});
    own.push_back({"admit_p50_us", percentile(admit_us_[0], 0.50), "us"});
    own.push_back({"admit_p90_us", percentile(admit_us_[0], 0.90), "us"});
    own.push_back({"reconfigure_p50_us", percentile(reconf_us_[0], 0.50), "us"});
    own.push_back({"reconfigure_p90_us", percentile(reconf_us_[0], 0.90), "us"});
    own.push_back({"admit_samples", static_cast<double>(admit_us_[0].size()),
                   "count"});
    own.push_back({"reconfigure_samples",
                   static_cast<double>(reconf_us_[0].size()), "count"});
  }

  void per_layer(const Tally& traced,
                 const std::map<std::string, trace::NameTotals>& spans,
                 std::map<std::string, double>& m) override {
    const Delta& d = delta_[1];
    const double ticks = static_cast<double>(traced.steps);
    m["fleet.run_cycles_s"] = self_per_step(spans, "fleet.run_cycles", traced);
    m["fleet.io_s"] = self_per_step(spans, "fleet.io", traced);
    m["fleet.admit_s"] = self_per_step(spans, "fleet.admit", traced);
    m["fleet.reconfigure_s"] = self_per_step(spans, "fleet.reconfigure", traced);
    m["fleet.evict_s"] = self_per_step(spans, "fleet.evict", traced);
    m["fleet.hit_admit_frac"] =
        ratio(static_cast<double>(d.hit_admits),
              static_cast<double>(d.admits + d.reconfigures));
    m["xpp.batch.batched_frac"] = ratio(static_cast<double>(d.batched),
                                        static_cast<double>(d.batched + d.scalar));
    m["xpp.batch.guard_exits"] = ratio(static_cast<double>(d.guard_exits), ticks);
    m["xpp.batch.gathers"] = ratio(static_cast<double>(d.gathers), ticks);
    m["xpp.cache.hit_frac"] =
        ratio(static_cast<double>(d.hits), static_cast<double>(d.lookups));
    m["xpp.compiled.compiles"] = static_cast<double>(d.compiles);
  }

 private:
  struct Delta {
    long long admits = 0, reconfigures = 0, hit_admits = 0;
    long long batched = 0, scalar = 0, guard_exits = 0, gathers = 0;
    long long lookups = 0, hits = 0, compiles = 0;
  };

  void make_chunks() {
    using namespace rsp;
    const std::size_t pool = opt_.smoke ? 4 : 16;
    chunks_.assign(pool, {});
    dedhw::UmtsScrambler scr(16);
    for (std::size_t j = 0; j < pool; ++j) {
      Rng rng(Rng::split(opt_.seed, j));
      std::vector<CplxI> chips(kFrameChips);
      for (auto& c : chips) {
        c = {static_cast<int>(rng.below(2000)) - 1000,
             static_cast<int>(rng.below(2000)) - 1000};
      }
      std::vector<std::uint8_t> code2(kFrameChips);
      for (auto& c : code2) c = scr.next2();
      Chunk& k = chunks_[j];
      k.data = rake::maps::pack_stream(chips);
      k.code.assign(code2.begin(), code2.end());
      for (auto& c : k.code) c &= 3;
      k.descrambled = rake::maps::pack_stream(rake::descramble(chips, code2));
      k.despread = rake::maps::pack_stream(
          rake::despread(chips, kDespreadSf, kDespreadCode));
    }
  }

  [[nodiscard]] const rsp::xpp::Configuration& config(bool despreader) const {
    return despreader ? despr_ : descr_;
  }

  void record(const Slot& s, Event e) {
    if (recording_ && s.life >= 0) {
      lives_[static_cast<std::size_t>(s.life)].events.push_back(std::move(e));
    }
  }

  /// Admit slot @p s with the given configuration; the latency lands in
  /// @p us when non-null.
  bool admit(std::size_t s, bool despreader, std::vector<double>* us) {
    Slot& slot = slots_[s];
    const auto a = Clock::now();
    {
      trace::Span span("fleet.admit");
      slot.id = fleet_->admit(config(despreader));
    }
    if (us != nullptr) us->push_back(seconds_between(a, Clock::now()) * 1e6);
    slot.despreader = despreader;
    slot.expect.clear();
    slot.life = -1;
    if (recording_) {
      lives_.push_back(Life{despreader, {}});
      slot.life = static_cast<int>(lives_.size()) - 1;
    }
    return fleet_->cache_hit(slot.id);
  }

  /// One frame tick; checks every drained word against the golden
  /// expectation outside the timed region.
  void tick(Tally& t) {
    const bool traced = trace::enabled();
    std::vector<std::vector<Word>> drained(slots_.size());
    std::vector<int> fed(slots_.size());
    const Stopwatch sw;
    bool threw = false;
    try {
      trace::Span root("step.tick");
      {
        trace::Span s("fleet.io");
        for (std::size_t i = 0; i < slots_.size(); ++i) {
          fed[i] = static_cast<int>((i * 5 + static_cast<std::size_t>(tick_)) %
                                    chunks_.size());
          const Chunk& c = chunks_[static_cast<std::size_t>(fed[i])];
          fleet_->input(slots_[i].id, "data").feed(c.data);
          if (!slots_[i].despreader) {
            fleet_->input(slots_[i].id, "code").feed(c.code);
          }
        }
      }
      {
        trace::Span s("fleet.run_cycles");
        fleet_->run_cycles(static_cast<long long>(kFrameChips));
      }
      trace::Span s("fleet.io");
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        drained[i] = fleet_->output(slots_[i].id, "out").take();
      }
    } catch (const std::exception&) {
      threw = true;
    }
    const double dt = sw.wall_s();
    const double dc = sw.cpu_s();
    ++tick_;
    t.add_busy(dt, dc);
    t.add_event(0, dt, dc);
    tick_us_[traced].push_back(dt * 1e6);
    t.steps += 1;
    t.ops += static_cast<long long>(slots_.size());
    t.attempted += 1;
    bool ok = !threw;
    for (std::size_t i = 0; i < slots_.size() && !threw; ++i) {
      Slot& slot = slots_[i];
      const Chunk& c = chunks_[static_cast<std::size_t>(fed[i])];
      const auto& gold = slot.despreader ? c.despread : c.descrambled;
      slot.expect.insert(slot.expect.end(), gold.begin(), gold.end());
      for (const Word w : drained[i]) {
        if (slot.expect.empty() || slot.expect.front() != w) {
          ok = false;
          break;
        }
        slot.expect.pop_front();
      }
      record(slot, Event{Event::kFeed, fed[i], false, {}});
      record(slot, Event{Event::kRun, 0, false, {}});
      record(slot, Event{Event::kTake, 0, false, std::move(drained[i])});
    }
    if (!ok) t.failed += 1;
  }

  void maybe_churn(Tally& t) {
    if (tick_ % churn_every_ != 0) return;
    const bool traced = trace::enabled();
    const std::size_t n = slots_.size();
    const std::size_t start = (static_cast<std::size_t>(churns_) * 7) % n;
    std::size_t a = start, b = start;
    while (slots_[a].despreader) a = (a + 1) % n;
    while (!slots_[b].despreader) b = (b + 1) % n;
    const std::size_t victim = (static_cast<std::size_t>(churns_) * 13 + 3) % n;
    ++churns_;
    const Stopwatch sw;
    for (const std::size_t s : {a, b}) {
      Slot& slot = slots_[s];
      const bool next = !slot.despreader;
      const auto r0 = Clock::now();
      t.attempted += 1;
      try {
        trace::Span span("fleet.reconfigure");
        fleet_->reconfigure(slot.id, config(next));
      } catch (const std::exception&) {
        t.failed += 1;
        continue;
      }
      reconf_us_[traced].push_back(seconds_between(r0, Clock::now()) * 1e6);
      if (!fleet_->cache_hit(slot.id)) t.failed += 1;
      slot.despreader = next;
      slot.expect.clear();
      record(slot, Event{Event::kReconfigure, 0, next, {}});
    }
    t.attempted += 1;
    try {
      const bool despreader = slots_[victim].despreader;
      {
        trace::Span span("fleet.evict");
        fleet_->evict(slots_[victim].id);
      }
      if (!admit(victim, despreader, &admit_us_[traced])) t.failed += 1;
    } catch (const std::exception&) {
      t.failed += 1;
    }
    t.add_busy(sw.wall_s(), sw.cpu_s());
  }

  /// Replay @p life on a cold per-instance kCompiled array; returns
  /// what differs, or an empty string.
  std::string replay(const Life& life) const {
    using namespace rsp;
    xpp::ConfigurationManager mgr({}, xpp::SchedulerKind::kCompiled);
    bool despreader = life.despreader;
    xpp::ConfigId id = mgr.load(config(despreader));
    std::size_t takes = 0;
    for (const Event& e : life.events) {
      switch (e.kind) {
        case Event::kFeed: {
          const Chunk& c = chunks_[static_cast<std::size_t>(e.chunk)];
          mgr.input(id, "data").feed(c.data);
          if (!despreader) mgr.input(id, "code").feed(c.code);
          break;
        }
        case Event::kRun:
          mgr.sim().run(static_cast<long long>(kFrameChips));
          break;
        case Event::kTake:
          ++takes;
          if (mgr.output(id, "out").take() != e.words) {
            return "drain " + std::to_string(takes);
          }
          break;
        case Event::kReconfigure:
          mgr.release(id);
          despreader = e.despreader;
          id = mgr.load(config(despreader));
          break;
      }
    }
    return {};
  }

  Options opt_;
  std::size_t sessions_;
  long long churn_every_;
  int check_ticks_;
  rsp::xpp::Configuration descr_, despr_;
  std::vector<Chunk> chunks_;
  std::unique_ptr<rsp::xpp::BatchProgramCache> cache_;
  std::unique_ptr<rsp::fleet::FleetManager> fleet_;
  std::vector<Slot> slots_;
  std::vector<Life> lives_;
  bool recording_ = false;
  long long tick_ = 0;
  long long churns_ = 0;
  long long setup_failed_ = 0;
  Delta delta_[2];
  std::vector<double> admit_us_[2], reconf_us_[2], tick_us_[2];
};

}  // namespace

std::unique_ptr<Workload> make_fleet_serve(const Options& o) {
  return std::make_unique<FleetServe>(o);
}

}  // namespace perfbench
