#include "core/world.h"

#include <cmath>
#include <utility>

#include "core/cluster_layout.h"
#include "scenario/engine.h"
#include "scenario/scenario.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "util/rng.h"

namespace hyco {

SimWorld::SimWorld(const WorldSpec& spec)
    : n_(spec.n),
      seed_(spec.seed),
      sim_(spec.seed),
      plan_(spec.crashes.specs.empty()
                ? CrashPlan::none(static_cast<std::size_t>(spec.n))
                : spec.crashes),
      tracker_(static_cast<std::size_t>(spec.n)) {
  HYCO_CHECK_MSG(plan_.specs.size() == static_cast<std::size_t>(n_),
                 "crash plan size " << plan_.specs.size() << " != n " << n_);
  sim_.reserve_all_to_all(n_);

  delays_ = spec.delay_factory != nullptr && *spec.delay_factory
                ? (*spec.delay_factory)()
                : make_delay_model(spec.delays);

  // Scenario faults wrap the delay model in a FaultyChannel and give the
  // network its partition/loss/duplication hooks. Empty scenario = the
  // plain channel, bit for bit.
  DelayModel* channel = delays_.get();
  if (spec.scenario != nullptr && !spec.scenario->empty()) {
    HYCO_CHECK_MSG(spec.layout != nullptr, "a scenario needs a layout");
    scenario_ = std::make_unique<ScenarioEngine>(*spec.scenario, *spec.layout,
                                                 std::move(delays_));
    channel = &scenario_->channel();
  }

  // With tracing off the network gets no trace at all, so call sites skip
  // even the detail-string formatting.
  if (spec.enable_trace) {
    if (spec.trace_sink == nullptr) own_trace_ = std::make_unique<Trace>();
    trace_ = spec.trace_sink != nullptr ? spec.trace_sink : own_trace_.get();
    trace_->enable(true);
  }
  net_.emplace(sim_, *channel, tracker_, n_, &plan_, trace_);
  if (scenario_ != nullptr) net_->set_scenario(scenario_.get());
}

SimWorld::~SimWorld() = default;

void SimWorld::schedule_crashes(std::function<void(ProcId)> on_rejoin) {
  on_rejoin_ = std::move(on_rejoin);
  for (ProcId p = 0; p < n_; ++p) {
    const CrashSpec& spec = plan_.specs[static_cast<std::size_t>(p)];
    if (spec.kind != CrashSpec::Kind::AtTime) continue;
    if (spec.time <= 0) {
      tracker_.crash(p, 0);  // initially dead
    } else {
      sim_.schedule_at(spec.time,
                       [this, p, t = spec.time] { tracker_.crash(p, t); });
    }
  }
  if (scenario_ == nullptr) return;
  for (const ScenarioEngine::Rejoin& rj : scenario_->rejoins()) {
    const ProcId p = rj.proc;
    if (rj.down_at <= 0) {
      tracker_.crash(p, 0);  // down from the start
    } else {
      sim_.schedule_at(rj.down_at,
                       [this, p, t = rj.down_at] { tracker_.crash(p, t); });
    }
    if (rj.up_at == kSimTimeNever) continue;
    sim_.schedule_at(rj.up_at, [this, p, t = rj.up_at] {
      tracker_.recover(p, t);
      if (on_rejoin_) on_rejoin_(p);
    });
  }
}

void SimWorld::schedule_starts(SimTime jitter,
                               std::function<void(ProcId)> start) {
  start_ = std::move(start);
  // Clock skew (scenario) stretches a slow process's start the same way it
  // stretches its per-message handling.
  Rng start_rng(mix64(seed_, 0x57A7));
  for (ProcId p = 0; p < n_; ++p) {
    SimTime at = jitter > 0 ? start_rng.uniform(0, jitter) : 0;
    if (scenario_ != nullptr) {
      const double f = scenario_->speed_factor(p);
      if (f != 1.0) {
        at = static_cast<SimTime>(std::llround(static_cast<double>(at) * f));
      }
    }
    sim_.schedule_at(at, [this, p] {
      if (!tracker_.is_crashed(p)) start_(p);
    });
  }
}

}  // namespace hyco
