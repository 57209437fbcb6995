#include "service/service_runner.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>

#include "coin/coin.h"
#include "core/multivalued.h"
#include "core/world.h"
#include "scenario/engine.h"
#include "service/replica.h"
#include "service/traffic.h"
#include "sim/trace.h"
#include "util/assert.h"

namespace hyco {

ServiceRunResult run_service(const ServiceRunConfig& cfg) {
  const ProcId n = cfg.layout.n();
  HYCO_CHECK_MSG(cfg.clients >= 1, "service runs need at least one client");

  // The service traces only into a caller-owned sink.
  SimWorld world({.n = n,
                  .seed = cfg.seed,
                  .crashes = cfg.crashes,
                  .delays = cfg.delays,
                  .delay_factory = &cfg.delay_factory,
                  .scenario = &cfg.scenario,
                  .layout = &cfg.layout,
                  .enable_trace =
                      cfg.enable_trace && cfg.trace_sink != nullptr,
                  .trace_sink = cfg.trace_sink});
  Simulator& sim = world.sim();
  const CrashTracker& tracker = world.tracker();
  Trace* const trace = world.trace();

  MemoryPool pool(n, ConsensusImpl::Cas);

  // The service always runs the Algorithm 3 common-coin core (the TOB's
  // embedded instances need the shared coin); same seed stream and
  // imperfect-coin ablation as run_consensus.
  const std::unique_ptr<ICommonCoin> coin = make_common_coin(
      cfg.seed, 0xC01C01, cfg.coin_epsilon, cfg.adversary_bit);

  // Consensus orders compact batch ids, so the multivalued width only needs
  // to cover the largest possible id (every batch holds >= 1 op). Narrow
  // widths keep per-slot cost down: a slot runs width embedded binary
  // instances.
  const std::uint64_t total_ops = cfg.clients * cfg.ops_per_client;
  const int width = std::clamp(
      static_cast<int>(std::bit_width(total_ops)), 1, 64);

  BatchRegistry registry;
  std::vector<std::unique_ptr<ServiceReplica>> replicas;
  replicas.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    replicas.push_back(std::make_unique<ServiceReplica>(
        p, cfg.layout, world.net(), pool, *coin, sim, tracker, registry,
        cfg.max_rounds_per_bit, width, cfg.batch_max, cfg.batch_delay));
  }
  world.net().set_deliver([&](ProcId to, ProcId from, const Message& m) {
    replicas[static_cast<std::size_t>(to)]->on_message(from, m);
  });

  TrafficConfig tcfg;
  tcfg.clients = cfg.clients;
  tcfg.ops_per_client = cfg.ops_per_client;
  tcfg.load = cfg.load;
  TrafficEngine traffic(
      sim, tracker, tcfg, cfg.seed, n,
      [&replicas, &sim, trace](ProcId origin, std::uint64_t op_id) {
        if (trace != nullptr) {
          trace->record(sim.now(), TraceKind::SvcOp, origin,
                        "op=" + std::to_string(op_id));
        }
        replicas[static_cast<std::size_t>(origin)]->submit_op(op_id);
      });

  // An op completes for its client when the origin replica delivers the
  // batch containing it (every replica delivers every batch; the client is
  // attached to one). Delivery also closes the attribution chain: the op's
  // latency splits exactly into batching wait (submit -> flush), slot
  // queueing (flush -> the deciding slot's consensus start at the
  // completing replica), and consensus/delivery (slot start -> now).
  ExactMoments batch_wait;
  obs::LogHistogram batch_wait_hist;
  ExactMoments seq_wait;
  obs::LogHistogram seq_wait_hist;
  ExactMoments consensus;
  obs::LogHistogram consensus_hist;
  for (ProcId p = 0; p < n; ++p) {
    ServiceReplica& rep = *replicas[static_cast<std::size_t>(p)];
    rep.set_on_deliver([&, p](const Batch& batch, int slot) {
      if (trace != nullptr) {
        trace->record(sim.now(), TraceKind::SvcDeliver, p,
                      "slot=" + std::to_string(slot) +
                          " batch=" + std::to_string(batch.id) +
                          " ops=" + std::to_string(batch.ops.size()));
      }
      for (const std::uint64_t op_id : batch.ops) {
        if (!traffic.on_op_completed(op_id, sim.now())) continue;
        const ClientOp& op = traffic.ops()[op_id - 1];
        // slot_started_at is -1 when this replica never ran the slot
        // (e.g. it learned the decision from peers); the max() clamps the
        // span to start no earlier than the batch existed.
        const SimTime started =
            replicas[static_cast<std::size_t>(p)]->slot_started_at(slot);
        const SimTime s = std::max(started, batch.flushed_at);
        batch_wait.add(
            static_cast<std::uint64_t>(batch.flushed_at - op.submit_time));
        batch_wait_hist.add(
            static_cast<std::uint64_t>(batch.flushed_at - op.submit_time));
        seq_wait.add(static_cast<std::uint64_t>(s - batch.flushed_at));
        seq_wait_hist.add(static_cast<std::uint64_t>(s - batch.flushed_at));
        consensus.add(static_cast<std::uint64_t>(sim.now() - s));
        consensus_hist.add(static_cast<std::uint64_t>(sim.now() - s));
      }
    });
    if (trace != nullptr) {
      rep.set_on_flush([trace, &sim, p](const Batch& batch) {
        trace->record(sim.now(), TraceKind::SvcFlush, p,
                      "batch=" + std::to_string(batch.id) +
                          " ops=" + std::to_string(batch.ops.size()));
      });
      rep.set_on_slot_start([trace, &sim, p](int slot) {
        trace->record(sim.now(), TraceKind::SvcSlot, p,
                      "slot=" + std::to_string(slot));
      });
    }
  }

  // Scripted crashes and scenario crash-recovery cycles. A recovered
  // replica keeps its state (crash-recovery with stable storage); messages
  // sent into the down window are lost, so it may stall on in-flight slots
  // — safety is the guarantee, termination returns when enough traffic
  // flows again. `ever_crashed` feeds the termination verdict.
  std::vector<char> ever_crashed(static_cast<std::size_t>(n), 0);
  for (ProcId p = 0; p < n; ++p) {
    const CrashSpec::Kind kind =
        world.plan().specs[static_cast<std::size_t>(p)].kind;
    HYCO_CHECK_MSG(kind == CrashSpec::Kind::None ||
                       kind == CrashSpec::Kind::AtTime,
                   "service runs support AtTime crash specs only");
    ever_crashed[static_cast<std::size_t>(p)] =
        kind == CrashSpec::Kind::AtTime ? 1 : 0;
  }
  if (world.scenario() != nullptr) {
    for (const ScenarioEngine::Rejoin& rj : world.scenario()->rejoins()) {
      ever_crashed[static_cast<std::size_t>(rj.proc)] = 1;
    }
  }
  world.schedule_crashes();

  traffic.start();

  ServiceRunResult result;
  result.stop = sim.run(cfg.max_events);
  result.end_time = sim.now();
  result.events = sim.events_executed();
  result.crashed = tracker.crashed_count();
  result.net = world.net().stats();
  result.shm = pool.total();
  result.consensus_objects = pool.objects_created();

  result.ops_submitted = traffic.submitted();
  result.ops_completed = traffic.completed();
  result.batches = registry.count();
  result.latency = traffic.latency();
  result.latency_hist = traffic.latency_hist();
  result.batch_wait = batch_wait;
  result.batch_wait_hist = batch_wait_hist;
  result.seq_wait = seq_wait;
  result.seq_wait_hist = seq_wait_hist;
  result.consensus = consensus;
  result.consensus_hist = consensus_hist;

  result.slot_logs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    const auto& log = replicas[static_cast<std::size_t>(p)]->slot_log();
    result.slots = std::max<std::uint64_t>(result.slots, log.size());
    result.slot_logs.push_back(log);
  }

  ServiceCheckReport check = check_service_logs(result.slot_logs);
  result.safe_ok = check.ok;
  result.violations = std::move(check.violations);

  // Terminated = the closed loop drained: every op submitted at a replica
  // that never crashed completed at that replica.
  result.terminated = true;
  for (const ClientOp& op : traffic.ops()) {
    if (ever_crashed[static_cast<std::size_t>(op.origin)]) continue;
    if (!op.completed) {
      result.terminated = false;
      break;
    }
  }
  return result;
}

}  // namespace hyco
