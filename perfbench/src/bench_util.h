// Helpers of the layered benchmark that carry no simulation of their own:
// per-run seed derivation, the exact per-round tally and its safety /
// failure accounting, the per-layer cost model, and the in-memory span log
// of the traced pass. Kept apart from the workload code so the self-test
// binary can check them without running a simulation.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace hyco {
struct RunRecord;
struct ServiceRunResult;
}  // namespace hyco

namespace perfbench {

/// Per-run seed k of a workload: a pure function of (workload seed, stream,
/// k), so one `--seed` always expands to the same run list. `stream`
/// separates independent lists drawn from one workload seed (the workload's
/// own runs versus a layer driver's).
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t k);

/// Exact, seed-determined outcome of one pass over a workload's run list.
/// Every field is an integer count or an exact moment set, so two passes at
/// one seed are comparable exactly.
struct Tally {
  std::uint64_t runs = 0;       ///< entry-point runs (service or consensus)
  std::uint64_t attempted = 0;  ///< ops submitted, or consensus runs
  std::uint64_t completed = 0;  ///< ops completed, or runs that terminated
  std::uint64_t violations = 0;  ///< runs whose safety check failed
  std::vector<std::string> violation_notes;  ///< first few, for the log

  std::uint64_t events = 0;
  std::uint64_t msgs = 0;  ///< unicasts scheduled
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t held = 0;
  std::uint64_t shm_ops = 0;  ///< reads + writes + CAS + LL + SC attempts
  std::uint64_t shm_proposals = 0;
  std::uint64_t consensus_objects = 0;
  std::uint64_t decisions = 0;  ///< decided slots, or terminated runs
  std::uint64_t noop_slots = 0;
  std::uint64_t rounds = 0;  ///< summed deepest deciding round (consensus)
  std::uint64_t coin_flips = 0;
  std::uint64_t phase_msgs_handled = 0;  ///< only from run_consensus results

  hyco::ExactMoments latency;  ///< per-op latency, or per-run decide time, ns
  hyco::ExactMoments run_max;  ///< each run's max latency, ns
  hyco::ExactMoments batch_wait;
  hyco::ExactMoments seq_wait;
  hyco::ExactMoments consensus;

  /// Order-sensitive hash over each run's (seed, events, msgs, decisions):
  /// two passes agree on it only if they agree run by run.
  std::uint64_t fingerprint = 0;

  void add_run_fingerprint(std::uint64_t seed, std::uint64_t events,
                           std::uint64_t msgs, std::uint64_t decisions);
  void note_violation(const std::string& what);

  [[nodiscard]] std::uint64_t failed() const { return attempted - completed; }
  /// Ops not completed / ops submitted (or runs not terminated / runs).
  [[nodiscard]] double failed_share() const;
  /// The counts the out-of-band check compares between two passes.
  [[nodiscard]] bool same_counts(const Tally& o) const;
};

/// Folds one finished run_service call into `t`: ops submitted count as
/// attempted and ops completed as completed, whether or not the run
/// terminated, and a failed safety check is a violation.
void add_service_run(Tally& t, std::uint64_t seed,
                     const hyco::ServiceRunResult& r);

/// Folds one executor run record into `t`: every run is attempted, a run
/// that terminated is completed (and its decide time a latency sample),
/// and a run whose safety check failed is a violation.
void add_consensus_record(Tally& t, const hyco::RunRecord& r);

/// Per-unit costs measured by the isolated layer drivers, in wall ns.
struct UnitCosts {
  double event_ns = 0;      ///< one simulator event (sim driver)
  double net_msg_ns = 0;    ///< a message's network work beyond its event
                            ///< (net driver per delivery minus event_ns)
  double protocol_msg_ns = 0;  ///< consensus-protocol work per message: the
                               ///< protocol driver's wall per message minus
                               ///< the event and network parts
};

/// Per-op work counts of a workload (an op is a client op on the service
/// workloads and one consensus run on the consensus workloads).
struct OpWork {
  double events = 0;
  double msgs = 0;
};

/// Share of measured wall time per op explained by each layer; residual is
/// what the linear model leaves unexplained (service bookkeeping, executor
/// overhead, cache effects, and model error — negative when the isolated
/// drivers cost more per unit than the workload does). The four shares sum
/// to 1.
struct CostSplit {
  double wall_per_op_ns = 0;
  double sim = 0;
  double net = 0;
  double protocol = 0;
  double residual = 0;
};

CostSplit explain_cost(const UnitCosts& u, const OpWork& w,
                       double wall_per_op_ns);

/// One traced interval; `parent` is 0 for roots.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< steady clock, relative to log creation
  std::uint64_t end_ns = 0;
};

/// Exact total of many short timed intervals too numerous to keep one by
/// one (delay draws): how many, and their summed duration.
struct SpanTotal {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// Thread-safe in-memory span store; written out once at the end.
class SpanLog {
 public:
  SpanLog();
  [[nodiscard]] std::uint64_t now_ns() const;
  /// Opens a span and returns its id; close it with end().
  std::uint64_t begin(const char* name, std::uint64_t parent);
  void end(std::uint64_t id);
  /// Stores an already closed span (ids from next_id()).
  void add(const Span& s);
  [[nodiscard]] std::uint64_t next_id();
  /// Folds `t` into the running total named `name`.
  void add_total(const std::string& name, const SpanTotal& t);
  [[nodiscard]] SpanTotal total(const std::string& name) const;
  /// Summed duration and count of closed spans named `name`.
  [[nodiscard]] SpanTotal span_sum(const std::string& name) const;
  /// One JSON object per line: spans first, then the named totals.
  void write_jsonl(std::ostream& out) const;

 private:
  std::uint64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, SpanTotal>> totals_;
  std::uint64_t next_id_ = 1;
};

/// Host-speed reference: a fixed loop of integer arithmetic and random
/// read-modify-writes over a 4 MiB table, which no program change touches.
/// Returns its wall time. Shared hosts change speed by tens of percent over
/// seconds and minutes, and the loop slows with them.
double reference_seconds();

/// reference_seconds() on the quiet host the benchmark was tuned on (4-core
/// x86 VM); normalized times are expressed in seconds of that host.
inline constexpr double kReferenceSeconds = 0.006;

/// What one timed chunk did: its work units (simulator events) and, for
/// work spread over several threads, its busy time (CPU seconds over the
/// thread count); a negative busy time means "use the chunk's wall time".
struct ChunkWork {
  double units = 0;
  double busy_s = -1;
};

/// Times a pass as chunks of deterministic work, each bracketed by reference
/// loops, and estimates the pass's time at the reference host speed.
///
/// Each chunk's time is rescaled by kReferenceSeconds over the mean of the
/// two reference times around it; that corrects slow drift. Bursts of
/// contention shorter than a chunk slip past the reference loops, so the
/// estimate is the median rescaled time per work unit over all chunks,
/// times the pass's total units. Chunks of one pass do the same kind of
/// work, and a burst slows only a few of them.
class HostTimer {
 public:
  /// Runs `work`, which returns its ChunkWork, as one chunk.
  template <class F>
  void chunk(F&& work) {
    if (last_ref_ <= 0) last_ref_ = reference_seconds();
    const double t0 = now_s();
    const ChunkWork done = work();
    const double wall = now_s() - t0;
    const double ref = reference_seconds();
    add(wall, done.busy_s < 0 ? wall : done.busy_s, last_ref_, ref,
        done.units);
    last_ref_ = ref;
  }
  /// Folds one chunk of `units` work that took `wall` seconds (`busy`
  /// seconds of work time) between reference loops that took `ref_before`
  /// and `ref_after` seconds.
  void add(double wall, double busy, double ref_before, double ref_after,
           double units);

  /// Summed wall time of the chunks (reference loops excluded).
  [[nodiscard]] double wall_s() const { return wall_s_; }
  /// The pass's estimated work time at the reference host speed.
  [[nodiscard]] double norm_s() const;
  /// Mean host speed over the chunks, relative to the reference host.
  [[nodiscard]] double host_speed() const;

 private:
  static double now_s();
  double last_ref_ = 0;
  double wall_s_ = 0;
  double units_ = 0;
  std::vector<double> norm_per_unit_;
  std::vector<double> speeds_;
};

/// Median of a small sample (copies; empty -> 0).
double median(std::vector<double> xs);

}  // namespace perfbench
