// Isolated layer drivers of the traced pass. Each drives one layer through
// its public interface in the shape of the workload it explains (n, cluster
// count, delay model) and returns exact work counts plus the wall time they
// took, from which the cost model derives per-unit costs.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "core/runner.h"

namespace perfbench {

struct DriverResult {
  std::uint64_t units = 0;   ///< decisions / slots / deliveries driven
  std::uint64_t events = 0;  ///< simulator events executed
  std::uint64_t msgs = 0;    ///< unicasts scheduled (0 for the sim driver)
  std::uint64_t ticks = 0;   ///< Simulator::run_tick calls (sim driver)
  double wall_s = 0;         ///< wall time of the call
  Tally tally;               ///< run_consensus / run_multivalued outcomes
};

/// Event core alone: n processes exchange all-to-all rounds as typed Deliver
/// events with uniform(50,150) delays, driven by Simulator::run_tick.
DriverResult drive_sim(hyco::ProcId n, std::uint64_t seed);

/// Network: the same all-to-all rounds through SimNetwork::broadcast with a
/// UniformDelay(50,150) model.
DriverResult drive_net(hyco::ProcId n, std::uint64_t seed);

/// Binary consensus: run_consensus over the given configurations, serially.
DriverResult drive_core(const std::vector<hyco::RunConfig>& cfgs);

/// Multivalued slot: run_multivalued at `width` bits, one slot per run.
DriverResult drive_slot(hyco::ProcId n, int clusters, int width,
                        std::uint64_t seed, std::uint64_t runs);

}  // namespace perfbench
