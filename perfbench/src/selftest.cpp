// Self-tests of the benchmark's own helpers: seed derivation, moment
// merging, failed_share accounting, the cost-model residual, host-speed
// normalization and the span log. Exits
// non-zero on the first failed check; perfbench/run.py runs it after every
// build, before any measurement.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>

#include "bench_util.h"
#include "exp/sink.h"
#include "service/service_runner.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "selftest FAILED: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

void seed_derivation() {
  expect(derive_seed(7, 1, 3) == derive_seed(7, 1, 3),
         "derive_seed is a pure function");
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < 10'000; ++k) seen.insert(derive_seed(7, 1, k));
  expect(seen.size() == 10'000, "one workload seed gives distinct run seeds");
  expect(derive_seed(7, 1, 0) != derive_seed(8, 1, 0),
         "workload seeds give different run lists");
  expect(derive_seed(7, 1, 0) != derive_seed(7, 2, 0),
         "streams give different run lists");
}

hyco::ServiceRunResult service_run(std::uint64_t submitted,
                                   std::uint64_t completed,
                                   std::vector<std::uint64_t> latencies) {
  hyco::ServiceRunResult r;
  r.ops_submitted = submitted;
  r.ops_completed = completed;
  for (std::uint64_t x : latencies) r.latency.add(x);
  return r;
}

void moment_merging() {
  // Per-run latency moments folded into the pass tally must equal one
  // accumulator over every op, in any run order; run_max averages each
  // run's own maximum.
  Tally ab, ba, whole;
  const auto a = service_run(3, 3, {1000, 2000, 9000});
  const auto b = service_run(2, 2, {4000, 5000});
  add_service_run(ab, 1, a);
  add_service_run(ab, 2, b);
  add_service_run(ba, 2, b);
  add_service_run(ba, 1, a);
  for (std::uint64_t x : {1000, 2000, 9000, 4000, 5000}) whole.latency.add(x);
  expect(ab.latency.count() == 5 &&
             ab.latency.raw_sum() == whole.latency.raw_sum() &&
             ab.latency.raw_sumsq() == whole.latency.raw_sumsq(),
         "merged moments equal the moments of all ops");
  expect(ab.latency.mean() == ba.latency.mean() &&
             ab.latency.max() == ba.latency.max() &&
             ab.latency.min() == ba.latency.min(),
         "run order does not matter");
  expect(near(ab.latency.mean(), 4200.0), "merged mean");
  expect(near(ab.run_max.mean(), 7000.0), "mean of the per-run maxima");
  expect(ab.fingerprint != ba.fingerprint, "the fingerprint sees run order");
}

void failed_share_accounting() {
  Tally t;
  expect(t.failed_share() == 0.0, "empty tally has no failures");
  add_service_run(t, 1, service_run(200, 150, {}));
  add_service_run(t, 2, service_run(100, 100, {}));
  expect(t.attempted == 300 && t.failed() == 50 && near(t.failed_share(), 50.0 / 300),
         "incomplete ops count against every op submitted");
  hyco::ServiceRunResult unsafe = service_run(10, 10, {});
  unsafe.safe_ok = false;
  unsafe.violations.push_back("slot 3 diverges");
  add_service_run(t, 3, unsafe);
  expect(t.violations == 1 && t.violation_notes.size() == 1,
         "a failed checker is a violation, not a dropped run");

  Tally c;
  hyco::RunRecord done;
  done.terminated = true;
  done.decision_time = 900;
  hyco::RunRecord stuck;  // did not terminate, still safe
  hyco::RunRecord broken;
  broken.terminated = true;
  broken.safe_ok = false;
  broken.decision_time = 100;
  add_consensus_record(c, done);
  add_consensus_record(c, stuck);
  add_consensus_record(c, broken);
  expect(c.attempted == 3 && c.failed() == 1 && near(c.failed_share(), 1.0 / 3),
         "a run that did not terminate counts as failed");
  expect(c.violations == 1, "an unsafe run counts as a violation");
  expect(c.latency.count() == 2 && near(c.latency.mean(), 500.0),
         "only terminated runs give decide-time samples");
}

void cost_model_residual() {
  UnitCosts u;
  u.event_ns = 10;
  u.net_msg_ns = 5;
  u.protocol_msg_ns = 22.5;
  OpWork w;
  w.events = 50;
  w.msgs = 40;
  // Explained: 500 + 200 + 900 = 1600 ns of a 2000 ns op.
  const CostSplit c = explain_cost(u, w, 2000);
  expect(near(c.sim, 0.25) && near(c.net, 0.10) && near(c.protocol, 0.45),
         "layer shares are count x unit cost over wall per op");
  expect(near(c.residual, 0.20), "residual is the unexplained 400 ns");
  expect(near(c.sim + c.net + c.protocol + c.residual, 1.0),
         "shares and residual sum to one");
  const CostSplit over = explain_cost(u, w, 1000);
  expect(near(over.residual, -0.6), "an over-explaining model shows a negative residual");
  expect(explain_cost(u, w, 0).residual == 0.0, "no wall time, no split");
}

void host_normalization() {
  HostTimer t;
  t.add(1.0, 1.0, kReferenceSeconds, kReferenceSeconds, 100);
  expect(near(t.norm_s(), 1.0), "a chunk at reference speed keeps its time");
  HostTimer slow;
  slow.add(2.0, 2.0, 2 * kReferenceSeconds, 2 * kReferenceSeconds, 100);
  expect(near(slow.wall_s(), 2.0) && near(slow.norm_s(), 1.0) &&
             near(slow.host_speed(), 0.5),
         "a chunk on a host half as fast counts half its wall time");
  HostTimer mixed;
  mixed.add(1.0, 1.0, kReferenceSeconds, 3 * kReferenceSeconds, 100);
  expect(near(mixed.norm_s(), 0.5), "the two reference loops around a chunk are averaged");
  // Three chunks of 100, 200 and 100 units at 10 ms per unit, one of them
  // hit by a burst the reference loops missed: the median per-unit time
  // ignores the burst and the total keeps the work of every chunk.
  HostTimer burst;
  burst.add(1.0, 1.0, kReferenceSeconds, kReferenceSeconds, 100);
  burst.add(2.0, 2.0, kReferenceSeconds, kReferenceSeconds, 200);
  burst.add(3.0, 3.0, kReferenceSeconds, kReferenceSeconds, 100);
  expect(near(burst.wall_s(), 6.0) && near(burst.norm_s(), 4.0),
         "a burst in one chunk does not move the estimate");
  HostTimer threaded;
  threaded.add(1.0, 0.8, kReferenceSeconds, kReferenceSeconds, 100);
  expect(near(threaded.wall_s(), 1.0) && near(threaded.norm_s(), 0.8),
         "busy time, not wall time, is what gets rescaled");
  expect(reference_seconds() > 0, "the reference loop takes time");
}

void span_log() {
  SpanLog log;
  const std::uint64_t root = log.begin("root", 0);
  const std::uint64_t child = log.begin("child", root);
  log.end(child);
  log.end(root);
  log.add_total("draw", SpanTotal{3, 30});
  log.add_total("draw", SpanTotal{1, 10});
  expect(log.total("draw").count == 4 && log.total("draw").total_ns == 40,
         "totals accumulate");
  expect(log.span_sum("child").count == 1, "closed spans are summed by name");
  std::ostringstream os;
  log.write_jsonl(os);
  expect(os.str().find("\"parent\":" + std::to_string(root)) != std::string::npos,
         "spans keep their parent");
}

}  // namespace

int main() {
  seed_derivation();
  moment_merging();
  failed_share_accounting();
  cost_model_residual();
  host_normalization();
  span_log();
  if (failures) return 1;
  std::cerr << "perfbench selftest: ok\n";
  return 0;
}
