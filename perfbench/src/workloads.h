// The benchmark's four workloads. Each expands the workload seed into a
// fixed run list and executes it through the program's public entry points
// only: run_service for the service workloads, ParallelExecutor::run for the
// consensus workloads. Why each workload exists is recorded in
// perfbench/README.md and BENCHMARK.json.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/runner.h"
#include "exp/spec.h"
#include "net/delay_model.h"

namespace perfbench {

enum class Kind { Service, Consensus };

struct Workload {
  const char* name;
  Kind kind;
  hyco::ProcId n;
  int clusters;
  // Service workloads: one run_service call per run-list seed.
  std::uint64_t runs = 0;
  std::uint64_t clients = 0;
  std::uint64_t ops_per_client = 0;
  double load = 0.0;  ///< offered ops/s; 0 = closed loop without think time
  // Consensus workloads: runs of the common-coin and local-coin cells.
  std::uint64_t runs_common = 0;
  std::uint64_t runs_local = 0;
  bool faulty = false;
  /// Timed chunks per pass: each times one slice of the run list between
  /// two host-speed reference loops (HostTimer).
  std::uint64_t chunks = 1;
};

/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);

/// Value width the service gives its slots for `w` (bit width of the ops of
/// one run) — the width the isolated slot driver runs at.
int service_width(const Workload& w);

/// Tracing hooks of one pass. With `spans` set, every run's delay model is
/// wrapped in a timing decorator that delegates unchanged, and each
/// entry-point call gets a span under `parent`.
struct PassHooks {
  SpanLog* spans = nullptr;
  std::uint64_t parent = 0;
};

struct PassResult {
  Tally tally;
  double wall_s = 0;  ///< wall time of the work, reference loops excluded
  double norm_s = 0;  ///< work time at the reference host speed (HostTimer)
  double host_speed = 1;  ///< mean host speed over the reference host
  double cpu_s = 0;   ///< CPU time of the simulation work, all threads
  unsigned threads = 1;
};

/// Runs the whole run list once, in `w.chunks` timed chunks.
PassResult run_pass(const Workload& w, std::uint64_t seed,
                    const PassHooks& hooks);

/// The set-up unit: the first timed chunk of workload seed 0's pass, a
/// fixed input whatever `--seed` says, run once and untimed.
Tally run_reference_unit(const Workload& w);

/// The consensus workloads' grid cells at `seed` (empty for service ones);
/// the core layer driver replays a prefix of them through run_consensus.
std::vector<hyco::ExperimentCell> consensus_cells(const Workload& w,
                                                  std::uint64_t seed);

/// Delay-model decorator of the traced pass: times each draw, keeps the
/// first few per run as spans, and folds exact totals into the log when
/// the run ends. Delegates every call unchanged, so the simulation — RNG
/// stream included — is the untraced one.
class TimedDelay final : public hyco::DelayModel {
 public:
  TimedDelay(std::unique_ptr<hyco::DelayModel> inner, SpanLog& log,
             std::uint64_t parent);
  ~TimedDelay() override;
  TimedDelay(const TimedDelay&) = delete;
  TimedDelay& operator=(const TimedDelay&) = delete;

  hyco::SimTime delay(hyco::ProcId from, hyco::ProcId to,
                      const hyco::Message& m, hyco::SimTime now,
                      hyco::Rng& rng) override;

 private:
  static constexpr std::size_t kKeptSpans = 32;
  std::unique_ptr<hyco::DelayModel> inner_;
  SpanLog& log_;
  std::uint64_t parent_;
  SpanTotal total_;
  std::vector<Span> kept_;
};

}  // namespace perfbench
