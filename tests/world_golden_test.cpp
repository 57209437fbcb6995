// Cross-version golden test for the six simulation entry points. Each case
// runs one fixed-seed configuration and folds everything observable about
// it (event and message counts, end time, crash/recovery counts, decisions
// or logs, trace records) into a 64-bit FNV-1a fingerprint pinned below.
//
// The determinism suites compare a build against itself (threads 1 vs 4);
// this one compares against the numbers the code produced when the pins
// were taken, so a change in RNG draw order, event scheduling order or
// world assembly shows up here even when every run stays self-consistent.
// A refactor of the runners must leave every constant as it is.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "baseline/mm_runner.h"
#include "core/multivalued_runner.h"
#include "core/runner.h"
#include "core/total_order_runner.h"
#include "scenario/scenario.h"
#include "service/service_runner.h"
#include "sim/trace.h"
#include "workload/failure_patterns.h"
#include "workload/register_harness.h"

namespace hyco {
namespace {

class Fingerprint {
 public:
  /// Folds integers, enums and bools as 8 little-endian bytes each.
  template <typename... Ts>
  Fingerprint& add(const Ts&... vs) {
    (bytes(static_cast<std::uint64_t>(vs)), ...);
    return *this;
  }
  Fingerprint& add_str(std::string_view s) {
    add(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }
  Fingerprint& add_net(const NetStats& s) {
    return add(s.unicasts_sent, s.broadcasts, s.delivered,
               s.dropped_sender_crashed, s.dropped_receiver_crashed,
               s.dropped_partitioned, s.dropped_lost, s.duplicated,
               s.held_partitioned);
  }
  Fingerprint& add_shm(const ShmOpCounts& s) {
    return add(s.reads, s.writes, s.cas_attempts, s.cas_successes,
               s.consensus_proposals);
  }
  Fingerprint& add_moments(const ExactMoments& m) {
    return add(m.count(), static_cast<std::uint64_t>(m.raw_sum()),
               m.raw_max());
  }
  Fingerprint& add_trace(const Trace& t) {
    add(t.recorded());
    t.for_each([this](const TraceRecord& r) {
      add(r.at, r.kind, r.proc, r.mid, r.parent).add_str(r.detail);
    });
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << "0x" << std::hex << h_;
    return os.str();
  }

 private:
  void bytes(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Loss, duplication, reordering, a healing cluster cut, a crash-recovery
/// cycle and a slow process: every scenario hook the runners wire up.
ScenarioConfig faulty_scenario() {
  ScenarioConfig s;
  s.link.loss = 0.02;
  s.link.dup = 0.02;
  s.link.reorder_max = 200;
  s.partitions.push_back(parse_partition_spec("cluster:0@100..2us"));
  s.recoveries.push_back(parse_recovery_spec("3@200..4us"));
  s.skews.push_back(parse_skew_spec("proc:1:x2"));
  return s;
}

/// An n-process plan in which each listed (p, t) crashes p at time t.
CrashPlan at_times(std::size_t n,
                   std::initializer_list<std::pair<int, SimTime>> crashes) {
  CrashPlan plan = CrashPlan::none(n);
  for (const auto& [p, t] : crashes) {
    plan.specs[static_cast<std::size_t>(p)] = CrashSpec::at_time(t);
  }
  return plan;
}

Fingerprint fingerprint(const RunResult& r) {
  Fingerprint f;
  f.add(r.events, r.end_time, r.last_decision_time, r.stop, r.crashed,
        r.recovered, r.consensus_objects, r.max_round, r.success());
  f.add_net(r.net).add_shm(r.shm);
  for (std::size_t p = 0; p < r.decisions.size(); ++p) {
    const auto& d = r.decisions[p];
    f.add(d.has_value(), d.value_or(Estimate::Bot), r.decision_rounds[p],
          r.proc_stats[p].coin_flips);
  }
  for (const std::uint64_t v : r.obs.v) f.add(v);
  f.add_str(r.trace_dump);
  return f;
}

Fingerprint fingerprint(const ServiceRunResult& r) {
  Fingerprint f;
  f.add(r.events, r.end_time, r.stop, r.crashed, r.consensus_objects,
        r.ops_submitted, r.ops_completed, r.batches, r.slots, r.terminated,
        r.safe_ok);
  f.add_net(r.net).add_shm(r.shm);
  f.add_moments(r.latency).add_moments(r.batch_wait);
  f.add_moments(r.seq_wait).add_moments(r.consensus);
  for (const auto& log : r.slot_logs) {
    f.add(log.size());
    for (const SlotRecord& s : log) f.add(s.slot, s.batch);
  }
  return f;
}

TEST(WorldGolden, ConsensusAtTimeCrashWithRunLocalTrace) {
  RunConfig cfg(ClusterLayout::even(8, 2));
  cfg.seed = 101;
  cfg.crashes = at_times(8, {{1, 0}, {5, 300}});
  cfg.enable_trace = true;  // no sink: the run keeps its own ring
  const RunResult r = run_consensus(cfg);
  ASSERT_TRUE(r.safe());
  ASSERT_FALSE(r.trace_dump.empty());
  EXPECT_EQ(fingerprint(r).hex(), "0x41a8aefe3d9647ae");
}

TEST(WorldGolden, ConsensusMidBroadcastCrashBiasedCoin) {
  const auto layout = ClusterLayout::even(8, 4);
  Rng rng(0xD5);
  RunConfig cfg(layout);
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 202;
  cfg.crashes = failure_patterns::mid_broadcast(layout, 2, 1, rng).plan;
  cfg.coin_epsilon = 0.25;
  cfg.adversary_bit = 1;
  cfg.collect_obs = true;
  const RunResult r = run_consensus(cfg);
  ASSERT_TRUE(r.safe());
  EXPECT_EQ(fingerprint(r).hex(), "0xf351b039de7dbbf1");
}

TEST(WorldGolden, ConsensusBenOrAtTimeCrash) {
  RunConfig cfg(ClusterLayout::even(7, 1));
  cfg.alg = Algorithm::BenOr;
  cfg.seed = 303;
  cfg.crashes = at_times(7, {{2, 120}});
  const RunResult r = run_consensus(cfg);
  ASSERT_TRUE(r.safe());
  EXPECT_EQ(fingerprint(r).hex(), "0x795ecc6b7b976e18");
}

TEST(WorldGolden, ConsensusFaultyScenarioWithTraceSink) {
  RunConfig cfg(ClusterLayout::even(8, 2));
  cfg.alg = Algorithm::HybridCommonCoin;
  cfg.seed = 404;
  cfg.scenario = faulty_scenario();
  cfg.crashes = at_times(8, {{6, 5'000}});
  Trace sink(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &sink;
  cfg.collect_obs = true;
  const RunResult r = run_consensus(cfg);
  ASSERT_TRUE(r.safe());
  EXPECT_EQ(fingerprint(r).add_trace(sink).hex(), "0x31dc84dd33c823b3");
}

TEST(WorldGolden, ServiceFaultyScenarioWithTraceSink) {
  ServiceRunConfig cfg(ClusterLayout::even(8, 2));
  cfg.seed = 505;
  cfg.scenario = faulty_scenario();
  cfg.crashes = at_times(8, {{6, 5'000}});
  cfg.clients = 64;
  cfg.ops_per_client = 2;
  cfg.batch_max = 8;
  Trace sink(1 << 16);
  cfg.enable_trace = true;
  cfg.trace_sink = &sink;
  const ServiceRunResult r = run_service(cfg);
  ASSERT_TRUE(r.safe_ok);
  EXPECT_EQ(fingerprint(r).add_trace(sink).hex(), "0xab9f1c47d023c442");
}

TEST(WorldGolden, ServiceAtTimeCrashTraceWithoutSink) {
  ServiceRunConfig cfg(ClusterLayout::even(6, 3));
  cfg.seed = 606;
  cfg.crashes = at_times(6, {{4, 2'000}});
  cfg.clients = 40;
  cfg.batch_max = 4;
  cfg.load = 2e6;
  cfg.enable_trace = true;  // no sink: nothing to record into
  const ServiceRunResult r = run_service(cfg);
  ASSERT_TRUE(r.success());
  EXPECT_EQ(fingerprint(r).hex(), "0xc20be91d60fe8eb7");
}

TEST(WorldGolden, MultivaluedAtTimeCrash) {
  MultiRunConfig cfg(ClusterLayout::even(6, 2));
  cfg.width = 8;
  cfg.seed = 707;
  cfg.crashes = at_times(6, {{0, 150}});
  const MultiRunResult r = run_multivalued(cfg);
  ASSERT_TRUE(r.success());
  Fingerprint f;
  f.add(r.events, r.end_time, r.stop, r.crashed, r.consensus_objects);
  f.add_net(r.net).add_shm(r.shm);
  for (const auto& d : r.decisions) f.add(d.has_value(), d.value_or(0));
  EXPECT_EQ(f.hex(), "0x5a3aa6d43e3bc178");
}

TEST(WorldGolden, TotalOrderAtTimeCrash) {
  TobRunConfig cfg(ClusterLayout::from_sizes({2, 3, 2}));
  cfg.seed = 808;
  cfg.submissions = {{0, 0, 11}, {3, 0, 22}, {6, 40, 33}, {2, 90, 44}};
  cfg.crashes = at_times(7, {{4, 400}});
  const TobRunResult r = run_tob(cfg);
  ASSERT_TRUE(r.success());
  Fingerprint f;
  f.add(r.events, r.end_time, r.crashed).add_net(r.net);
  for (const auto& log : r.logs) {
    f.add(log.size());
    for (const std::uint64_t v : log) f.add(v);
  }
  EXPECT_EQ(f.hex(), "0xef2e91ec1983f742");
}

TEST(WorldGolden, MmAtTimeAndMidBroadcastCrash) {
  MmRunConfig cfg(MmDomain::fig2());
  const auto n = static_cast<std::size_t>(cfg.domain.n());
  cfg.seed = 909;
  cfg.crashes = at_times(n, {{0, 200}});
  cfg.crashes.specs[n - 1] = CrashSpec::on_broadcast(1, 2);
  const RunResult r = run_mm(cfg);
  ASSERT_TRUE(r.safe());
  EXPECT_EQ(fingerprint(r).hex(), "0x5bc9a02ed6e50aef");
}

TEST(WorldGolden, RegisterWorkloadAtTimeCrash) {
  RegisterRunConfig cfg(ClusterLayout::even(6, 3));
  cfg.seed = 1010;
  cfg.crashes = at_times(6, {{2, 700}});
  const RegisterRunResult r = run_register_workload(cfg);
  ASSERT_TRUE(r.success());
  Fingerprint f;
  f.add(r.end_time, r.crashed, r.history.size()).add_net(r.net);
  for (const RegOpRecord& op : r.history) {
    f.add(op.proc, op.is_write, op.value, op.ts.seq, op.ts.writer,
          op.invoked, op.responded);
  }
  EXPECT_EQ(f.hex(), "0x48b7ed3818479666");
}

}  // namespace
}  // namespace hyco
