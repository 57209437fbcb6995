// The simulated system model every runner executes in: n asynchronous
// processes joined by a crash-prone message network, with scripted crashes,
// an optional adversarial scenario and an optional trace. SimWorld is the
// one place a simulated run is assembled — run_consensus, run_multivalued,
// run_tob, run_mm, run_register_workload and run_service each build one and
// add only their own processes, memories and workload on top.
//
// Construction order and RNG salts are part of the determinism contract:
// event sequence numbers break same-time ties, so every runner's artifacts
// depend on what is scheduled when. The world schedules nothing on its own;
// runners call schedule_crashes() and schedule_starts() at the point their
// protocol objects exist.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/types.h"
#include "net/delay_model.h"
#include "net/network.h"
#include "sim/crash.h"
#include "sim/simulator.h"

namespace hyco {

class ClusterLayout;
class ScenarioEngine;
class Trace;
struct ScenarioConfig;

/// What a runner's config says about its world. Referenced objects need
/// only outlive the SimWorld constructor, except `layout` and `trace_sink`,
/// which must outlive the world.
struct WorldSpec {
  ProcId n;
  std::uint64_t seed;
  const CrashPlan& crashes;  ///< empty specs = nobody crashes
  const DelayConfig& delays;
  /// Builds a custom delay model instead of `delays` when set and callable.
  const std::function<std::unique_ptr<DelayModel>()>* delay_factory = nullptr;
  /// A non-empty scenario wraps the delay model in its faulty channel and
  /// gives the network its partition/loss/duplication hooks. Needs `layout`.
  const ScenarioConfig* scenario = nullptr;
  const ClusterLayout* layout = nullptr;
  /// Tracing on: the network records into `trace_sink`, or into a
  /// world-owned ring when no sink is given. Off: no ring exists at all.
  bool enable_trace = false;
  Trace* trace_sink = nullptr;
};

/// Owns the Simulator, crash plan and tracker, delay model (wrapped in the
/// scenario channel when a scenario is set), trace ring and SimNetwork of
/// one run. Not copyable or movable: scheduled closures capture `this`.
class SimWorld {
 public:
  explicit SimWorld(const WorldSpec& spec);
  ~SimWorld();
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  [[nodiscard]] ProcId n() const { return n_; }
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] CrashTracker& tracker() { return tracker_; }
  [[nodiscard]] SimNetwork& net() { return *net_; }
  /// The crash plan, defaulted to CrashPlan::none(n) when the spec's was
  /// empty.
  [[nodiscard]] const CrashPlan& plan() const { return plan_; }
  /// The scenario engine, or nullptr without a scenario.
  [[nodiscard]] ScenarioEngine* scenario() const { return scenario_.get(); }
  /// The ring the network records into, or nullptr with tracing off.
  [[nodiscard]] Trace* trace() const { return trace_; }

  /// Schedules the scripted crashes: every AtTime spec of the plan (time
  /// <= 0 = down from the start), then every scenario crash-recovery cycle.
  /// `on_rejoin(p)` runs right after p's recovery is recorded.
  void schedule_crashes(std::function<void(ProcId)> on_rejoin = {});

  /// Schedules each process's start at a time drawn uniformly from
  /// [0, jitter] (one draw per process, in id order, from the run's start
  /// stream), stretched by the process's scenario speed factor.
  /// `start(p)` runs then unless p is down.
  void schedule_starts(SimTime jitter, std::function<void(ProcId)> start);

 private:
  ProcId n_;
  std::uint64_t seed_;
  Simulator sim_;
  CrashPlan plan_;
  CrashTracker tracker_;
  std::unique_ptr<DelayModel> delays_;
  std::unique_ptr<ScenarioEngine> scenario_;
  std::unique_ptr<Trace> own_trace_;
  Trace* trace_ = nullptr;
  std::optional<SimNetwork> net_;
  std::function<void(ProcId)> on_rejoin_;
  std::function<void(ProcId)> start_;
};

}  // namespace hyco
