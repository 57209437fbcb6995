#include "layers.h"

#include <array>
#include <chrono>
#include <sstream>

#include "core/multivalued_runner.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDriverStream = 0x4C415952;  // "LAYR"
// ~2M deliveries per call: long enough to time, short enough that several
// repetitions of both drivers stay around a second.
constexpr std::uint64_t kTargetDeliveries = 2'000'000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Deliver sink of the sim driver: process `to` answers every n-th delivery
/// with a broadcast of its own, so all-to-all rounds keep the queue as deep
/// and as bursty as a protocol phase does.
class RoundSink final : public hyco::DeliverSink {
 public:
  RoundSink(hyco::Simulator& sim, hyco::ProcId n, std::uint64_t seed,
            std::uint64_t budget)
      : sim_(sim), n_(n), received_(static_cast<std::size_t>(n), 0),
        budget_(budget) {
    hyco::Rng rng(seed);
    for (auto& d : delays_) d = rng.uniform(50, 150);
  }

  void broadcast(hyco::ProcId from) {
    if (scheduled_ >= budget_) return;
    const hyco::Message m =
        hyco::Message::phase_msg(1, hyco::Phase::One, hyco::Estimate::One);
    for (hyco::ProcId to = 0; to < n_; ++to) {
      sim_.schedule_deliver(delays_[next_++ % delays_.size()], from, to, m);
    }
    scheduled_ += static_cast<std::uint64_t>(n_);
  }

  void deliver_event(hyco::ProcId, hyco::ProcId to, const hyco::Message&,
                     std::uint64_t) override {
    ++delivered_;
    if (++received_[static_cast<std::size_t>(to)] % n_ == 0) broadcast(to);
  }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  hyco::Simulator& sim_;
  hyco::ProcId n_;
  std::vector<std::int64_t> received_;
  std::uint64_t budget_;
  std::uint64_t scheduled_ = 0;
  std::uint64_t delivered_ = 0;
  std::size_t next_ = 0;
  std::array<hyco::SimTime, 4096> delays_{};
};

}  // namespace

DriverResult drive_sim(hyco::ProcId n, std::uint64_t seed) {
  hyco::Simulator sim(seed);
  sim.reserve_all_to_all(n);
  RoundSink sink(sim, n, derive_seed(seed, kDriverStream, 1),
                 kTargetDeliveries);
  sim.set_deliver_sink(&sink);
  for (hyco::ProcId p = 0; p < n; ++p) sink.broadcast(p);
  DriverResult r;
  const auto t0 = Clock::now();
  std::uint64_t ticks = 0;
  for (;;) {
    ++ticks;
    if (sim.run_tick().has_value()) break;
  }
  r.wall_s = seconds_since(t0);
  sim.clear_deliver_sink(&sink);
  r.units = sink.delivered();
  r.events = sim.events_executed();
  r.ticks = ticks;
  return r;
}

DriverResult drive_net(hyco::ProcId n, std::uint64_t seed) {
  hyco::Simulator sim(seed);
  sim.reserve_all_to_all(n);
  hyco::UniformDelay delay(50, 150);
  hyco::CrashTracker tracker(static_cast<std::size_t>(n));
  hyco::SimNetwork net(sim, delay, tracker, n);
  std::vector<std::int64_t> received(static_cast<std::size_t>(n), 0);
  std::uint64_t scheduled = 0;
  const hyco::Message m =
      hyco::Message::phase_msg(1, hyco::Phase::One, hyco::Estimate::One);
  auto broadcast = [&](hyco::ProcId from) {
    if (scheduled >= kTargetDeliveries) return;
    net.broadcast(from, m);
    scheduled += static_cast<std::uint64_t>(n);
  };
  net.set_deliver([&](hyco::ProcId to, hyco::ProcId, const hyco::Message&) {
    if (++received[static_cast<std::size_t>(to)] % n == 0) broadcast(to);
  });
  for (hyco::ProcId p = 0; p < n; ++p) broadcast(p);
  DriverResult r;
  const auto t0 = Clock::now();
  sim.run();
  r.wall_s = seconds_since(t0);
  r.units = net.stats().delivered;
  r.events = sim.events_executed();
  r.msgs = net.stats().unicasts_sent;
  return r;
}

DriverResult drive_core(const std::vector<hyco::RunConfig>& cfgs) {
  DriverResult r;
  const auto t0 = Clock::now();
  for (const hyco::RunConfig& cfg : cfgs) {
    const hyco::RunResult res = hyco::run_consensus(cfg);
    Tally& t = r.tally;
    ++t.runs;
    ++t.attempted;
    if (res.all_correct_decided) {
      ++t.completed;
      ++t.decisions;
      t.rounds += static_cast<std::uint64_t>(res.max_decision_round);
    }
    if (!res.safe()) {
      std::ostringstream os;
      os << "core driver seed " << cfg.seed << ": "
         << (res.violations.empty() ? "safety check failed"
                                    : res.violations.front());
      t.note_violation(os.str());
    }
    t.events += res.events;
    t.msgs += res.net.unicasts_sent;
    t.delivered += res.net.delivered;
    t.shm_ops += res.shm.reads + res.shm.writes + res.shm.cas_attempts +
                 res.shm.ll_ops + res.shm.sc_attempts;
    t.shm_proposals += res.shm.consensus_proposals;
    for (const hyco::ProcessStats& ps : res.proc_stats) {
      t.coin_flips += ps.coin_flips;
      t.phase_msgs_handled += ps.phase_msgs_handled;
    }
    t.add_run_fingerprint(cfg.seed, res.events, res.net.unicasts_sent,
                          res.all_correct_decided ? 1 : 0);
  }
  r.wall_s = seconds_since(t0);
  r.units = r.tally.decisions;
  r.events = r.tally.events;
  r.msgs = r.tally.msgs;
  return r;
}

DriverResult drive_slot(hyco::ProcId n, int clusters, int width,
                        std::uint64_t seed, std::uint64_t runs) {
  DriverResult r;
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < runs; ++k) {
    hyco::MultiRunConfig cfg(hyco::ClusterLayout::even(n, clusters));
    cfg.width = width;
    cfg.seed = derive_seed(seed, kDriverStream, 100 + k);
    const hyco::MultiRunResult res = hyco::run_multivalued(cfg);
    Tally& t = r.tally;
    ++t.runs;
    ++t.attempted;
    if (res.all_correct_decided) {
      ++t.completed;
      ++t.decisions;
    }
    if (!res.agreement_ok || !res.validity_ok) {
      t.note_violation("slot driver seed " + std::to_string(cfg.seed) +
                       ": multivalued agreement/validity failed");
    }
    t.events += res.events;
    t.msgs += res.net.unicasts_sent;
    t.consensus_objects += res.consensus_objects;
    t.add_run_fingerprint(cfg.seed, res.events, res.net.unicasts_sent,
                          res.all_correct_decided ? 1 : 0);
  }
  r.wall_s = seconds_since(t0);
  r.units = r.tally.decisions;
  r.events = r.tally.events;
  r.msgs = r.tally.msgs;
  return r;
}

}  // namespace perfbench
