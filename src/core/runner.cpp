#include "core/runner.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "baseline/ben_or.h"
#include "coin/coin.h"
#include "core/common_coin_process.h"
#include "core/invariant_checker.h"
#include "core/local_coin_process.h"
#include "core/world.h"
#include "obs/observer.h"
#include "obs/phase_timings.h"
#include "obs/trace_observer.h"
#include "shm/cluster_memory.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {

const char* to_cstring(Algorithm a) {
  switch (a) {
    case Algorithm::HybridLocalCoin: return "hybrid-LC";
    case Algorithm::HybridCommonCoin: return "hybrid-CC";
    case Algorithm::BenOr: return "ben-or";
  }
  return "?";
}

std::vector<Estimate> split_inputs(ProcId n) {
  std::vector<Estimate> in(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    in[static_cast<std::size_t>(p)] = estimate_from_bit(p % 2);
  }
  return in;
}

std::vector<Estimate> uniform_inputs(ProcId n, Estimate v) {
  HYCO_CHECK(is_binary(v));
  return std::vector<Estimate>(static_cast<std::size_t>(n), v);
}

RunResult run_binary_world(
    SimWorld& world,
    const std::vector<std::unique_ptr<IConsensusProcess>>& procs,
    const std::vector<Estimate>& inputs, std::uint64_t max_events) {
  const ProcId n = world.n();
  Simulator& sim = world.sim();
  const CrashTracker& tracker = world.tracker();
  RunResult result;
  result.decisions.assign(static_cast<std::size_t>(n), std::nullopt);
  result.decision_rounds.assign(static_cast<std::size_t>(n), 0);

  // Deliveries run through here; newly-made decisions are timestamped.
  world.net().set_deliver([&](ProcId to, ProcId from, const Message& m) {
    IConsensusProcess& proc = *procs[static_cast<std::size_t>(to)];
    const bool was_decided = proc.decided();
    proc.on_message(from, m);
    if (!was_decided && proc.decided()) result.last_decision_time = sim.now();
  });

  result.stop = sim.run(max_events);
  result.end_time = sim.now();
  result.events = sim.events_executed();
  result.crashed = tracker.crashed_count();
  result.recovered = tracker.recovered_count();
  result.net = world.net().stats();

  bool all_correct_decided = true;
  for (ProcId p = 0; p < n; ++p) {
    const IConsensusProcess& proc = *procs[static_cast<std::size_t>(p)];
    const auto idx = static_cast<std::size_t>(p);
    result.proc_stats.push_back(proc.stats());
    result.max_round = std::max(result.max_round, proc.current_round());
    if (proc.decided()) {
      result.decisions[idx] = proc.decision();
      result.decision_rounds[idx] = proc.decision_round();
      result.max_decision_round =
          std::max(result.max_decision_round, proc.decision_round());
      if (!result.decided_value.has_value()) {
        result.decided_value = proc.decision();
      } else if (*result.decided_value != *proc.decision()) {
        result.agreement_ok = false;
        std::ostringstream os;
        os << "AGREEMENT violated: p" << p << " decided " << *proc.decision()
           << " vs earlier " << *result.decided_value;
        result.violations.push_back(os.str());
      }
    } else if (!tracker.is_crashed(p)) {
      all_correct_decided = false;
    }
  }
  result.all_correct_decided = all_correct_decided;

  if (result.decided_value.has_value()) {
    const bool proposed = std::find(inputs.begin(), inputs.end(),
                                    *result.decided_value) != inputs.end();
    if (!proposed) {
      result.validity_ok = false;
      result.violations.push_back("VALIDITY violated: decided value "
                                  "was never proposed");
    }
  }
  return result;
}

RunResult run_consensus(const RunConfig& cfg) {
  const ProcId n = cfg.layout.n();
  const std::vector<Estimate> inputs =
      cfg.inputs.empty() ? split_inputs(n) : cfg.inputs;
  HYCO_CHECK_MSG(inputs.size() == static_cast<std::size_t>(n),
                 "inputs size " << inputs.size() << " != n " << n);

  SimWorld world({.n = n,
                  .seed = cfg.seed,
                  .crashes = cfg.crashes,
                  .delays = cfg.delays,
                  .delay_factory = &cfg.delay_factory,
                  .scenario = &cfg.scenario,
                  .layout = &cfg.layout,
                  .enable_trace = cfg.enable_trace,
                  .trace_sink = cfg.trace_sink});
  Simulator& sim = world.sim();

  InvariantChecker checker(cfg.layout);
  checker.set_inputs(inputs);

  // Cluster memories (hybrid algorithms only touch their own cluster's).
  std::vector<std::unique_ptr<ClusterMemory>> memories;
  if (cfg.alg != Algorithm::BenOr) {
    memories.reserve(static_cast<std::size_t>(cfg.layout.m()));
    for (ClusterId x = 0; x < cfg.layout.m(); ++x) {
      memories.push_back(std::make_unique<ClusterMemory>(x, n, cfg.shm_impl));
    }
  }

  // The common coin (Algorithm 3); a positive epsilon models an imperfect
  // coin for the T-ADV ablation.
  std::unique_ptr<ICommonCoin> common_coin;
  if (cfg.alg == Algorithm::HybridCommonCoin) {
    common_coin = make_common_coin(cfg.seed, 0xC01C01, cfg.coin_epsilon,
                                   cfg.adversary_bit);
  }

  std::vector<std::unique_ptr<IConsensusProcess>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    const std::uint64_t coin_seed =
        mix64(cfg.seed, 0x10CA1 + static_cast<std::uint64_t>(p));
    switch (cfg.alg) {
      case Algorithm::HybridLocalCoin: {
        auto& mem =
            *memories[static_cast<std::size_t>(cfg.layout.cluster_of(p))];
        procs.push_back(std::make_unique<LocalCoinProcess>(
            p, cfg.layout, world.net(), mem, coin_seed, &checker,
            cfg.max_rounds));
        break;
      }
      case Algorithm::HybridCommonCoin: {
        auto& mem =
            *memories[static_cast<std::size_t>(cfg.layout.cluster_of(p))];
        procs.push_back(std::make_unique<CommonCoinProcess>(
            p, cfg.layout, world.net(), mem, *common_coin, &checker,
            cfg.max_rounds));
        break;
      }
      case Algorithm::BenOr:
        procs.push_back(std::make_unique<BenOrProcess>(
            p, n, world.net(), coin_seed, cfg.max_rounds));
        break;
    }
  }

  // Per-phase latency observer (opt-in) and/or trace mirror. Both read
  // sim.now() but never mutate simulation state, so instrumented runs are
  // byte-identical. When both are requested they share the processes'
  // single observer slot through a fanout.
  std::optional<obs::PhaseTimings> timings;
  std::optional<obs::TraceObserver> trace_obs;
  std::optional<obs::ObserverFanout> fanout;
  const auto now = [&sim] { return sim.now(); };
  if (cfg.collect_obs) timings.emplace(n, now);
  if (world.trace() != nullptr) trace_obs.emplace(*world.trace(), now);
  obs::IRunObserver* observer = nullptr;
  if (timings && trace_obs) {
    observer = &fanout.emplace(&*timings, &*trace_obs);
  } else if (timings) {
    observer = &*timings;
  } else if (trace_obs) {
    observer = &*trace_obs;
  }
  if (observer != nullptr) {
    for (auto& proc : procs) proc->set_observer(observer);
  }

  // Crash-recovery cycles (scenario): a process that was down at its start
  // time proposes on rejoin instead; `started` guards the double-start.
  std::vector<char> started(static_cast<std::size_t>(n), 0);
  const auto start = [&](ProcId p) {
    const auto idx = static_cast<std::size_t>(p);
    if (started[idx] != 0) return;
    started[idx] = 1;
    procs[idx]->start(inputs[idx]);
  };
  world.schedule_crashes([&](ProcId p) {
    // Announce the rejoin first: replies peers sent into the down window
    // were lost, so their per-peer reply guards must reset before the
    // rejoiner's retransmit reaches them.
    for (auto& proc : procs) proc->on_peer_recover(p);
    if (started[static_cast<std::size_t>(p)] == 0) {
      start(p);
    } else {
      procs[static_cast<std::size_t>(p)]->on_recover();
    }
  });

  // Decide-reply and catch-up gossip keep scenario runs live (see
  // RunConfig::scenario).
  if (world.scenario() != nullptr) {
    for (auto& proc : procs) proc->set_scenario_assist(true);
  }

  // Every live process invokes propose(v_p) at its own start time.
  world.schedule_starts(cfg.start_jitter, start);

  RunResult result = run_binary_world(world, procs, inputs, cfg.max_events);

  if (!checker.ok()) {
    result.invariants_ok = false;
    for (const auto& v : checker.violations()) result.violations.push_back(v);
  }
  for (const auto& mem : memories) {
    result.shm += mem->counts();
    result.consensus_objects += mem->objects_created();
  }

  // Message-class counters are free (already tallied by the network and the
  // processes); phase timings only exist under collect_obs.
  result.obs[obs::ObsId::kDelivered] = result.net.delivered;
  result.obs[obs::ObsId::kDroppedPartitioned] = result.net.dropped_partitioned;
  result.obs[obs::ObsId::kDroppedLost] = result.net.dropped_lost;
  result.obs[obs::ObsId::kDuplicated] = result.net.duplicated;
  result.obs[obs::ObsId::kHeldPartitioned] = result.net.held_partitioned;
  std::uint64_t coin_flips = 0;
  for (const ProcessStats& ps : result.proc_stats) coin_flips += ps.coin_flips;
  result.obs[obs::ObsId::kCoinFlips] = coin_flips;
  result.obs[obs::ObsId::kRounds] =
      static_cast<std::uint64_t>(result.max_decision_round);
  if (timings) timings->fill(result.obs);

  if (world.trace() != nullptr) {
    std::ostringstream os;
    world.trace()->dump(os);
    result.trace_dump = os.str();
  }
  return result;
}

}  // namespace hyco
