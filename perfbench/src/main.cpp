// hyco-perfbench — the layered benchmark's measuring process.
//
//   hyco-perfbench setup   --workload W --seed S
//   hyco-perfbench measure --workload W --seed S --seconds T --trace 0|1
//                          [--spans PATH]
//
// `setup` builds the workload's inputs and runs its fixed reference unit
// cold, then exits; perfbench/run.py reports the median set-up time and
// peak RSS of several of these processes.
// `measure --trace 0` runs the whole run list, and repeats it while another
// pass still fits in T seconds, then prints the end-to-end metrics as one
// JSON line. `measure --trace 1` runs the list untraced and then traced
// (delay draws timed through a delegating decorator, a span around every
// entry-point and layer-driver call), checks that both passes counted the
// same simulation, drives each layer in the workload's shape, and prints
// the per-layer metrics and cost model. Any safety violation, or any pass
// whose counts differ from the first, makes the exit code 1.
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "layers.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hyco-perfbench: " << why
            << "\nusage: hyco-perfbench setup|measure --workload W --seed S"
               " [--seconds T] [--trace 0|1] [--spans PATH]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != v.size() || v.empty() || v[0] == '-') {
    usage(flag + " wants a non-negative integer, got \"" + v + "\"");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  if (a.mode != "setup" && a.mode != "measure") usage("unknown mode " + a.mode);
  bool have_seed = false;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, v));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, v);
      if (t > 1) usage("--trace wants 0 or 1");
      a.trace = static_cast<int>(t);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!find_workload(a.workload)) usage("unknown workload \"" + a.workload + "\"");
  if (!have_seed) usage("--seed is required");
  if (a.mode == "measure" && a.seconds <= 0) usage("--seconds must be >= 1");
  return a;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

/// Timed calls per layer driver in the traced pass.
constexpr int kDriverReps = 5;

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].first
       << "\": {\"value\": " << metrics[i].second.value << ", \"unit\": \""
       << metrics[i].second.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Logs and counts a pass's safety violations; returns true when clean.
bool check_safety(const char* what, const Tally& t) {
  for (const std::string& v : t.violation_notes) {
    std::cerr << "SAFETY VIOLATION (" << what << "): " << v << "\n";
  }
  return t.violations == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Mean cost of one empty span (two back-to-back clock reads), subtracted
/// from the per-draw span mean.
double empty_span_ns(const SpanLog& log) {
  constexpr int kReps = 200'000;
  std::uint64_t total = 0;
  for (int i = 0; i < kReps; ++i) {
    const std::uint64_t t0 = log.now_ns();
    const std::uint64_t t1 = log.now_ns();
    total += t1 - t0;
  }
  return static_cast<double>(total) / kReps;
}

/// Set-up: from process start to the end of the workload's cold reference
/// unit, rescaled to the reference host speed measured right after it.
/// Prints {"setup_s", "peak_rss_mb"}; run.py takes medians over processes.
int run_setup(const Workload& w, std::chrono::steady_clock::time_point start) {
  const bool ok = check_safety("setup", run_reference_unit(w));
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  const double ref =
      median({reference_seconds(), reference_seconds(), reference_seconds()});
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"setup_s\": " << wall * kReferenceSeconds / ref
     << ", \"peak_rss_mb\": " << peak_rss_mb() << "}";
  std::cout << os.str() << std::endl;
  return ok ? 0 : 1;
}

/// Calls `drive` `reps` times as HostTimer chunks and returns its result
/// with the wall time of one call estimated at the reference host speed.
template <class F>
DriverResult normalized(F&& drive, int reps) {
  HostTimer timer;
  DriverResult r;
  for (int i = 0; i < reps; ++i) {
    timer.chunk([&] {
      r = drive();
      return ChunkWork{static_cast<double>(r.events), r.wall_s};
    });
  }
  r.wall_s = timer.norm_s() / reps;
  return r;
}

int run_end_to_end(const Workload& w, const Args& a) {
  // Warm-up: the cold reference unit, so allocator pools and caches are
  // filled before the timed passes (its cost is what setup_s reports).
  bool correct = check_safety("warm-up", run_reference_unit(w));

  std::vector<PassResult> passes;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    passes.push_back(run_pass(w, a.seed, PassHooks{}));
    const PassResult& p = passes.back();
    correct = check_safety("timed pass", p.tally) && correct;
    if (!p.tally.same_counts(passes.front().tally)) {
      std::cerr << "DETERMINISM: pass " << passes.size()
                << " counted a different simulation than pass 1\n";
      correct = false;
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (elapsed + p.wall_s > a.seconds) break;
  }

  std::vector<double> rates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassResult& p : passes) {
    rates.push_back(static_cast<double>(p.tally.completed) / p.norm_s);
    attempted += p.tally.attempted;
    failed += p.tally.failed();
  }
  const Tally& t = passes.front().tally;
  std::cerr << w.name << ": " << passes.size() << " pass(es), " << t.runs
            << " runs each, " << t.completed << "/" << t.attempted
            << (w.kind == Kind::Service ? " ops" : " runs")
            << " completed per pass, failed_share " << t.failed_share()
            << ", sim latency samples " << t.latency.count()
            << ", host speed " << passes.front().host_speed
            << " x reference, raw " << t.completed / passes.front().wall_s
            << " per wall s\n";
  const Metrics m = {
      {"ops_per_ref_s", {median(rates), "1/s"}},
      {"sim_latency_mean_us", {t.latency.mean() / 1e3, "us"}},
      {"sim_run_max_latency_us", {t.run_max.mean() / 1e3, "us"}},
      {"completed_share", {1.0 - t.failed_share(), "share"}},
  };
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

int run_traced(const Workload& w, const Args& a) {
  const bool svc = w.kind == Kind::Service;
  bool correct = check_safety("warm-up", run_reference_unit(w));

  const PassResult plain = run_pass(w, a.seed, PassHooks{});
  correct = check_safety("untraced pass", plain.tally) && correct;

  SpanLog log;
  const double clock_before_ns = empty_span_ns(log);
  const std::uint64_t root = log.begin("traced_pass", 0);
  const PassResult traced = run_pass(w, a.seed, PassHooks{&log, root});
  log.end(root);
  const double clock_ns = (clock_before_ns + empty_span_ns(log)) / 2;
  correct = check_safety("traced pass", traced.tally) && correct;
  if (!traced.tally.same_counts(plain.tally)) {
    std::cerr << "OUT-OF-BAND CHECK FAILED: the traced pass counted "
              << traced.tally.events << " events / " << traced.tally.msgs
              << " msgs / " << traced.tally.decisions
              << " decisions; untraced " << plain.tally.events << " / "
              << plain.tally.msgs << " / " << plain.tally.decisions << "\n";
    correct = false;
  }

  // Layer drivers, in the workload's shape.
  const std::uint64_t drivers = log.begin("layer_drivers", 0);
  std::uint64_t s = log.begin("drive_sim", drivers);
  const DriverResult dsim =
      normalized([&] { return drive_sim(w.n, a.seed); }, kDriverReps);
  log.end(s);
  s = log.begin("drive_net", drivers);
  const DriverResult dnet =
      normalized([&] { return drive_net(w.n, a.seed); }, kDriverReps);
  log.end(s);

  std::vector<hyco::RunConfig> core_cfgs;
  if (svc) {
    for (std::uint64_t k = 0; k < 1000; ++k) {
      hyco::RunConfig cfg(hyco::ClusterLayout::even(w.n, w.clusters));
      cfg.alg = hyco::Algorithm::HybridCommonCoin;
      cfg.seed = derive_seed(a.seed, 0x434F5245 /* "CORE" */, k);
      core_cfgs.push_back(std::move(cfg));
    }
  } else {
    // A prefix of the workload's own cells: the same runs the executor made.
    const std::uint64_t prefix = w.faulty ? 8 : 24;
    for (const hyco::ExperimentCell& c : consensus_cells(w, a.seed)) {
      for (std::uint64_t k = 0; k < prefix && k < c.runs; ++k) {
        core_cfgs.push_back(c.run_config(k));
      }
    }
  }
  s = log.begin("run_consensus", drivers);
  const DriverResult dcore =
      normalized([&] { return drive_core(core_cfgs); }, kDriverReps);
  log.end(s);
  correct = check_safety("core driver", dcore.tally) && correct;

  s = log.begin("run_multivalued", drivers);
  const DriverResult dslot = normalized(
      [&] {
        return drive_slot(w.n, w.clusters, service_width(w), a.seed,
                          w.n <= 8 ? 100 : 3);
      },
      kDriverReps);
  log.end(s);
  correct = check_safety("slot driver", dslot.tally) && correct;
  log.end(drivers);

  const Tally& u = plain.tally;
  // Binary-consensus counts: the service returns none per instance, so its
  // workloads take them from the core driver; the consensus workloads'
  // own records carry them. shm ops are the other way round.
  const Tally& core = svc ? dcore.tally : u;
  const Tally& shm = svc ? u : dcore.tally;
  const double ops = static_cast<double>(svc ? u.completed : u.runs);
  auto per = [](std::uint64_t a, double b) {
    return ratio(static_cast<double>(a), b);
  };
  auto per_decision = [&](std::uint64_t a, const Tally& t) {
    return per(a, static_cast<double>(t.decisions));
  };

  // Draw spans are raw ns on the traced pass's host; the clock-read cost
  // is taken off, and the rest rescaled to the reference host like every
  // other time.
  const SpanTotal draws = log.total("delay_draw");
  const double draw_ns =
      (per(draws.total_ns, static_cast<double>(draws.count)) - clock_ns) *
      traced.host_speed;

  // The protocol's per-message cost comes from the layer driver that runs
  // the workload's own protocol: the multivalued slot for the service
  // workloads, a prefix of the workload's binary-consensus runs otherwise.
  const DriverResult& proto = svc ? dslot : dcore;
  UnitCosts uc;
  const auto proto_msgs = static_cast<double>(proto.msgs);
  uc.event_ns = 1e9 * ratio(dsim.wall_s, static_cast<double>(dsim.events));
  uc.net_msg_ns =
      1e9 * ratio(dnet.wall_s, static_cast<double>(dnet.events)) - uc.event_ns;
  uc.protocol_msg_ns = 1e9 * ratio(proto.wall_s, proto_msgs) -
                       per(proto.events, proto_msgs) * uc.event_ns -
                       uc.net_msg_ns;
  OpWork work;
  work.events = per(u.events, ops);
  work.msgs = per(u.msgs, ops);
  // A pass's work time is per thread; times threads it is the CPU time per
  // op, comparable with the single-threaded drivers. All are rescaled to the
  // reference host speed.
  const double wall_per_op_ns = 1e9 * ratio(plain.norm_s * plain.threads, ops);
  const CostSplit cost = explain_cost(uc, work, wall_per_op_ns);

  const double lat = u.latency.mean();
  auto svc_only = [svc](double v) { return svc ? v : 0.0; };
  const Metrics m = {
      {"sim.events_per_op", {work.events, "count"}},
      {"sim.events_per_run", {per(u.events, static_cast<double>(u.runs)), "count"}},
      {"sim.events_per_s", {per(dsim.events, dsim.wall_s), "1/s"}},
      {"sim.items_per_tick", {per(dsim.events, static_cast<double>(dsim.ticks)), "count"}},
      {"net.msgs_per_s", {per(dnet.units, dnet.wall_s), "1/s"}},
      {"net.delay_draw_ns", {draw_ns, "ns"}},
      {"net.delivered_share", {per(u.delivered, static_cast<double>(u.msgs)), "share"}},
      {"scenario.lost_per_decision", {per_decision(u.lost, u), "count"}},
      {"scenario.duplicated_per_decision", {per_decision(u.duplicated, u), "count"}},
      {"scenario.held_per_decision", {per_decision(u.held, u), "count"}},
      {"core.rounds_per_decision", {per_decision(core.rounds, core), "count"}},
      {"core.msgs_per_decision", {per_decision(core.msgs, core), "count"}},
      {"core.coin_flips_per_decision", {per_decision(core.coin_flips, core), "count"}},
      {"core.useful_msg_share",
       {per(dcore.tally.phase_msgs_handled, static_cast<double>(dcore.tally.delivered)), "share"}},
      {"core.decisions_per_s", {per(dcore.units, dcore.wall_s), "1/s"}},
      {"shm.ops_per_decision", {per_decision(shm.shm_ops, shm), "count"}},
      {"shm.proposals_per_op", {per(u.shm_proposals, ops), "count"}},
      {"core.slot.noop_share", {svc_only(per_decision(u.noop_slots, u)), "share"}},
      {"core.slot.consensus_objects_per_slot", {per_decision(u.consensus_objects, u), "count"}},
      {"core.slot.msgs_per_slot", {per(dslot.msgs, static_cast<double>(dslot.units)), "count"}},
      {"core.slot.slots_per_s", {per(dslot.units, dslot.wall_s), "1/s"}},
      {"service.ops_per_slot", {svc_only(per_decision(u.completed, u)), "count"}},
      {"service.msgs_per_op", {svc_only(work.msgs), "count"}},
      {"service.batch_wait_share", {svc_only(ratio(u.batch_wait.mean(), lat)), "share"}},
      {"service.seq_wait_share", {svc_only(ratio(u.seq_wait.mean(), lat)), "share"}},
      {"service.consensus_share", {svc_only(ratio(u.consensus.mean(), lat)), "share"}},
      {"exp.cpu_util", {ratio(plain.cpu_s, plain.wall_s * plain.threads), "share"}},
      {"cost.wall_per_op_us", {cost.wall_per_op_ns / 1e3, "us"}},
      {"cost.sim_share", {cost.sim, "share"}},
      {"cost.net_share", {cost.net, "share"}},
      {"cost.protocol_share", {cost.protocol, "share"}},
      {"cost.residual_share", {cost.residual, "share"}},
      {"trace.overhead_ratio", {ratio(traced.norm_s, plain.norm_s), "ratio"}},
      {"host.ops_per_wall_s", {per(u.completed, plain.wall_s), "1/s"}},
      {"host.speed", {plain.host_speed, "ratio"}},
  };

  std::cerr << w.name << " cost model, wall per op "
            << cost.wall_per_op_ns / 1e3 << " us: sim " << cost.sim
            << ", net " << cost.net << ", protocol " << cost.protocol
            << ", residual " << cost.residual
            << "\n  unit costs (ns): event " << uc.event_ns << ", net msg "
            << uc.net_msg_ns << ", protocol msg " << uc.protocol_msg_ns
            << "; delay draws " << draws.count << " (clock read "
            << clock_ns << " ns)\n";
  for (const char* name : {"traced_pass", "run_service", "ParallelExecutor::run",
                           "drive_sim", "drive_net", "run_consensus",
                           "run_multivalued"}) {
    const SpanTotal st = log.span_sum(name);
    if (st.count) {
      std::cerr << "  span " << name << ": " << st.count << " x, "
                << static_cast<double>(st.total_ns) / 1e6 << " ms\n";
    }
  }
  if (!a.spans.empty()) {
    std::ofstream out(a.spans);
    log.write_jsonl(out);
    if (!out) {
      std::cerr << "cannot write spans to " << a.spans << "\n";
      correct = false;
    }
  }
  print_result(correct, u.attempted, u.failed(), m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const Args a = parse_args(argc, argv);
  const Workload& w = *find_workload(a.workload);
  try {
    if (a.mode == "setup") return run_setup(w, start);
    return a.trace ? run_traced(w, a) : run_end_to_end(w, a);
  } catch (const std::exception& e) {
    std::cerr << "hyco-perfbench: " << e.what() << "\n";
    return 1;
  }
}
