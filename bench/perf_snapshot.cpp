// B-SNAP — self-contained performance snapshot of the event core. Runs the
// same loops as the Google-Benchmark suite in bench_sim.cpp
// (BM_SimulatorEventThroughput / BM_SimulatorFanOut /
// BM_NetworkBroadcastDelivery) but requires no external dependency, so it
// can run in any CI job and seed the repo's performance trajectory.
//
// Writes a JSON document (default BENCH_sim.json) with events/sec, msgs/sec
// and peak queue depth per benchmark. Methodology: each loop is repeated
// `--reps` times and the best rate is reported (minimum-noise estimator for
// a throughput benchmark on a shared machine).
//
// Usage: perf_snapshot [--out=BENCH_sim.json] [--n=256] [--reps=5]
//                      [--baseline-broadcast=MSGS_PER_SEC]
// Unknown flags and positional arguments exit 2; --help prints the usage.
// The optional baseline is a previously measured broadcast-delivery rate
// (same machine, same flags); when given, the document records it and the
// resulting speedup factor.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>

#include "net/network.h"
#include "service/service_runner.h"
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/options.h"
#include "util/rng.h"

using namespace hyco;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BenchResult {
  std::uint64_t items = 0;        ///< events or messages per repetition
  double best_rate = 0.0;         ///< items/sec, best repetition
  std::size_t peak_queue = 0;     ///< peak pending events in the best rep
};

/// Self-perpetuating event chain: pure push/pop/dispatch cost at depth ~1.
BenchResult bench_event_throughput(int reps) {
  const std::int64_t total = 2'000'000;
  BenchResult r;
  r.items = static_cast<std::uint64_t>(total);
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim(1);
    std::int64_t fired = 0;
    std::function<void()> tick = [&] {
      if (++fired < total) sim.schedule_in(1, tick);
    };
    sim.schedule_in(0, tick);
    const auto t0 = Clock::now();
    sim.run();
    const double rate = static_cast<double>(fired) / seconds_since(t0);
    if (rate > r.best_rate) {
      r.best_rate = rate;
      r.peak_queue = sim.peak_queue_depth();
    }
  }
  return r;
}

/// Broadcast-like burst: k callbacks scheduled at once, then drained.
BenchResult bench_fanout(int reps) {
  const int k = 1'000'000;
  BenchResult r;
  r.items = static_cast<std::uint64_t>(k);
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim(2);
    sim.reserve(static_cast<std::size_t>(k), static_cast<std::size_t>(k));
    std::int64_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < k; ++i) {
      sim.schedule_in(i % 17, [&sink] { ++sink; });
    }
    sim.run();
    const double rate = static_cast<double>(sink) / seconds_since(t0);
    if (rate > r.best_rate) {
      r.best_rate = rate;
      r.peak_queue = sim.peak_queue_depth();
    }
  }
  return r;
}

/// Calendar stressor: 1M callbacks whose times are skewed across ~4096
/// distinct days (squared draws pile most events near the window base with
/// a long sparse tail), so the cursor walks empty buckets and the far tail
/// rides the overflow heap — the case a binary heap handles with deep
/// sifts and the calendar front end must handle in O(1) per event.
BenchResult bench_calendar_fanout(int reps) {
  const int k = 1'000'000;
  BenchResult r;
  r.items = static_cast<std::uint64_t>(k);
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim(4);
    sim.reserve(static_cast<std::size_t>(k), static_cast<std::size_t>(k));
    Rng rng(0xCAFE);
    std::int64_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < k; ++i) {
      const std::uint64_t d = rng.bounded(64);
      sim.schedule_in(static_cast<SimTime>(d * d), [&sink] { ++sink; });
    }
    sim.run();
    const double rate = static_cast<double>(sink) / seconds_since(t0);
    if (rate > r.best_rate) {
      r.best_rate = rate;
      r.peak_queue = sim.peak_queue_depth();
    }
  }
  return r;
}

/// End-to-end service throughput: one full replicated-service run (closed-
/// loop clients, batching, sequenced consensus) measured in decided ops per
/// WALL second — the figure a capacity planner actually buys.
BenchResult bench_service_ops(int reps) {
  BenchResult r;
  for (int rep = 0; rep < reps; ++rep) {
    ServiceRunConfig cfg(ClusterLayout::even(8, 2));
    cfg.seed = 7;
    cfg.clients = 20'000;
    cfg.ops_per_client = 1;
    const auto t0 = Clock::now();
    const ServiceRunResult res = run_service(cfg);
    const double secs = seconds_since(t0);
    HYCO_CHECK_MSG(res.success(), "service benchmark run failed");
    r.items = res.ops_completed;
    const double rate = static_cast<double>(res.ops_completed) / secs;
    if (rate > r.best_rate) r.best_rate = rate;
  }
  return r;
}

/// The acceptance benchmark: full network path (delay model, crash checks,
/// stats, deliver dispatch) under all-to-all broadcast bursts.
BenchResult bench_broadcast_delivery(ProcId n, int reps) {
  const int bursts = 40;   // bursts per drain cycle: 40·n messages in flight
  const int cycles = 100;
  BenchResult r;
  r.items = static_cast<std::uint64_t>(bursts) * cycles *
            static_cast<std::uint64_t>(n);
  for (int rep = 0; rep < reps; ++rep) {
    Simulator sim(3);
    sim.reserve(static_cast<std::size_t>(bursts) *
                static_cast<std::size_t>(n));
    ConstantDelay delay(10);
    CrashTracker tracker(static_cast<std::size_t>(n));
    SimNetwork net(sim, delay, tracker, n);
    std::int64_t delivered = 0;
    net.set_deliver([&](ProcId, ProcId, const Message&) { ++delivered; });
    const auto t0 = Clock::now();
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (int b = 0; b < bursts; ++b) {
        net.broadcast(b % n, Message::phase_msg(1, Phase::One, Estimate::One));
      }
      sim.run();
    }
    const double rate = static_cast<double>(delivered) / seconds_since(t0);
    if (rate > r.best_rate) {
      r.best_rate = rate;
      r.peak_queue = sim.peak_queue_depth();
    }
  }
  return r;
}

void emit(std::ostream& out, const std::string& name, const char* unit,
          const BenchResult& r, bool last = false) {
  out << "    \"" << name << "\": {\"items\": " << r.items << ", \"" << unit
      << "\": " << static_cast<std::uint64_t>(r.best_rate)
      << ", \"peak_queue_depth\": " << r.peak_queue << "}"
      << (last ? "\n" : ",\n");
}

constexpr const char* kUsage =
    "usage: perf_snapshot [--out=BENCH_sim.json] [--n=256] [--reps=5]\n"
    "                     [--baseline-broadcast=MSGS_PER_SEC]\n";

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  try {
    // Flags take --key=value: a space-separated value would parse as a
    // bare flag plus a positional argument, so both are rejected.
    for (const std::string& key : opts.keys()) {
      HYCO_CHECK_MSG(key == "out" || key == "n" || key == "reps" ||
                         key == "baseline-broadcast",
                     "--" << key << ": unknown flag (see --help)");
    }
    HYCO_CHECK_MSG(opts.positional().empty(),
                   "unexpected argument \"" << opts.positional().front()
                                             << "\" (flags take --key=value)");
    const auto n = static_cast<ProcId>(opts.get_int("n", 256));
    const int reps = static_cast<int>(opts.get_int("reps", 5));
    const std::string out_path = opts.get_string("out", "BENCH_sim.json");
    const double baseline = opts.get_double("baseline-broadcast", 0.0);
    HYCO_CHECK_MSG(n > 0 && reps > 0, "--n and --reps must be positive");

    std::cerr << "perf_snapshot: event throughput...\n";
    const BenchResult events = bench_event_throughput(reps);
    std::cerr << "perf_snapshot: fan-out...\n";
    const BenchResult fanout = bench_fanout(reps);
    std::cerr << "perf_snapshot: calendar fan-out...\n";
    const BenchResult calfan = bench_calendar_fanout(reps);
    std::cerr << "perf_snapshot: broadcast delivery (n=" << n << ")...\n";
    const BenchResult bcast = bench_broadcast_delivery(n, reps);
    std::cerr << "perf_snapshot: service decided ops...\n";
    const BenchResult service = bench_service_ops(reps);

    std::ofstream out(out_path);
    HYCO_CHECK_MSG(out.good(), "cannot open " << out_path);
    // Schema 2 = schema 1 plus calendar_fanout and service_decided_ops; every
    // schema-1 key keeps its exact name and shape so existing consumers (the
    // CI perf guard's older revisions, plotting scripts) read both.
    out << "{\n"
        << "  \"schema\": \"hyco-bench-sim/2\",\n"
        << "  \"config\": {\"n\": " << n << ", \"reps\": " << reps << "},\n"
        << "  \"results\": {\n";
    emit(out, "simulator_event_throughput", "events_per_sec", events);
    emit(out, "simulator_fanout", "events_per_sec", fanout);
    emit(out, "calendar_fanout", "events_per_sec", calfan);
    emit(out, "network_broadcast_delivery", "msgs_per_sec", bcast);
    out << "    \"service_decided_ops\": {\"items\": " << service.items
        << ", \"ops_per_sec\": "
        << static_cast<std::uint64_t>(service.best_rate) << "}"
        << (baseline > 0.0 ? ",\n" : "\n");
    if (baseline > 0.0) {
      out << "    \"reference\": {\"pre_refactor_broadcast_msgs_per_sec\": "
          << static_cast<std::uint64_t>(baseline)
          << ", \"speedup\": " << bcast.best_rate / baseline << "}\n";
    }
    out << "  }\n}\n";
    out.close();

    std::cout << "event throughput:   "
              << static_cast<std::uint64_t>(events.best_rate) << " events/sec\n"
              << "fan-out:            "
              << static_cast<std::uint64_t>(fanout.best_rate) << " events/sec\n"
              << "calendar fan-out:   "
              << static_cast<std::uint64_t>(calfan.best_rate) << " events/sec\n"
              << "broadcast delivery: "
              << static_cast<std::uint64_t>(bcast.best_rate) << " msgs/sec"
              << " (peak queue depth " << bcast.peak_queue << ")\n"
              << "service decided:    "
              << static_cast<std::uint64_t>(service.best_rate)
              << " ops/sec (wall)\n";
    if (baseline > 0.0) {
      std::cout << "speedup vs baseline: " << bcast.best_rate / baseline
                << "x\n";
    }
    std::cout << "wrote " << out_path << "\n";
  } catch (const ContractViolation& e) {
    std::cerr << "perf_snapshot: " << e.what() << '\n';
    return 2;
  }
  return 0;
}
