#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <bit>
#include <utility>

#include "exp/executor.h"
#include "scenario/engine.h"
#include "scenario/scenario.h"
#include "service/service_runner.h"

namespace perfbench {

namespace {

// Stream tags for derive_seed: the workload's own run list.
constexpr std::uint64_t kRunStream = 0x52554E53;  // "RUNS"

// Run-list sizes are set so one pass takes 10-15 s on the 4-core x86 VM the
// benchmark was tuned on, and a second run list moves every simulated
// metric by well under its bound: per-seed spread is wide (a run's
// common-coin sequence is shared by all of its instances, so a whole run is
// lucky or unlucky at once), and only many short runs average it out.
const std::vector<Workload> kWorkloads = {
    {"svc-saturated", Kind::Service, 8, 2, /*runs=*/640, /*clients=*/512,
     /*ops_per_client=*/2, /*load=*/0.0, 0, 0, false, /*chunks=*/40},
    {"svc-paced", Kind::Service, 8, 2, 50, 512, 2, 2'000'000.0, 0, 0, false,
     50},
    {"consensus-grid", Kind::Consensus, 64, 8, 0, 0, 0, 0.0,
     /*runs_common=*/1100, /*runs_local=*/1100, /*faulty=*/false, 50},
    {"consensus-faulty", Kind::Consensus, 64, 8, 0, 0, 0, 0.0, 100, 400, true,
     40},
};

constexpr unsigned kExecutorThreads = 2;

hyco::ScenarioConfig faulty_scenario() {
  hyco::ScenarioConfig s;
  s.link.loss = 0.02;
  s.link.dup = 0.02;
  s.link.reorder_max = 200;
  s.partitions.push_back(hyco::parse_partition_spec("cluster:0@1us..20us"));
  return s;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::function<std::unique_ptr<hyco::DelayModel>()> timed_factory(
    const hyco::DelayConfig& cfg, const PassHooks& hooks) {
  SpanLog* log = hooks.spans;
  const std::uint64_t parent = hooks.parent;
  return [cfg, log, parent] {
    return std::make_unique<TimedDelay>(hyco::make_delay_model(cfg), *log,
                                        parent);
  };
}

hyco::ServiceRunConfig service_config(const Workload& w, std::uint64_t seed,
                                      std::uint64_t k) {
  hyco::ServiceRunConfig cfg(hyco::ClusterLayout::even(w.n, w.clusters));
  cfg.seed = derive_seed(seed, kRunStream, k);
  cfg.delays = hyco::DelayConfig::uniform(50, 150);
  cfg.clients = w.clients;
  cfg.ops_per_client = w.ops_per_client;
  cfg.batch_max = 64;
  cfg.batch_delay = 50'000;
  cfg.load = w.load;
  return cfg;
}

/// Slice `i` of `chunks` equal slices of [0, runs).
std::pair<std::uint64_t, std::uint64_t> slice(std::uint64_t runs,
                                              std::uint64_t i,
                                              std::uint64_t chunks) {
  return {runs * i / chunks, runs * (i + 1) / chunks};
}

PassResult service_pass(const Workload& w, std::uint64_t seed,
                        const PassHooks& hooks) {
  PassResult out;
  HostTimer timer;
  for (std::uint64_t i = 0; i < w.chunks; ++i) {
    const auto [begin, end] = slice(w.runs, i, w.chunks);
    timer.chunk([&] {
      const double cpu0 = process_cpu_s();
      const std::uint64_t events0 = out.tally.events;
      for (std::uint64_t k = begin; k < end; ++k) {
        hyco::ServiceRunConfig cfg = service_config(w, seed, k);
        std::uint64_t span = 0;
        if (hooks.spans) {
          span = hooks.spans->begin("run_service", hooks.parent);
          cfg.delay_factory =
              timed_factory(cfg.delays, PassHooks{hooks.spans, span});
        }
        const hyco::ServiceRunResult r = hyco::run_service(cfg);
        if (hooks.spans) hooks.spans->end(span);
        add_service_run(out.tally, cfg.seed, r);
      }
      out.cpu_s += process_cpu_s() - cpu0;
      return ChunkWork{static_cast<double>(out.tally.events - events0)};
    });
  }
  out.wall_s = timer.wall_s();
  out.norm_s = timer.norm_s();
  out.host_speed = timer.host_speed();
  return out;
}

/// Runs `spans` of `cells` through the executor and folds every record into
/// `t` in cell, then run order; returns the executor's profiled CPU ns.
std::uint64_t execute(const std::vector<hyco::ExperimentCell>& cells,
                      const std::vector<hyco::RunSpan>& spans, Tally& t) {
  hyco::ParallelExecutor::Options opts;
  opts.threads = kExecutorThreads;
  opts.profile = true;
  hyco::CollectingSink::Options sink_opts;
  sink_opts.retain_records = true;
  hyco::CollectingSink sink(cells, std::move(sink_opts));
  hyco::ParallelExecutor(opts).run(cells, spans, sink);
  std::uint64_t cpu_ns = 0;
  for (const hyco::CellResult& cr : sink.take_results()) {
    cpu_ns += cr.profile.cpu_ns;
    for (const hyco::RunRecord& rec : cr.records) add_consensus_record(t, rec);
  }
  return cpu_ns;
}

PassResult consensus_pass(const Workload& w, std::uint64_t seed,
                          const PassHooks& hooks) {
  PassResult out;
  out.threads = kExecutorThreads;
  std::vector<hyco::ExperimentCell> cells = consensus_cells(w, seed);
  std::uint64_t span = 0;
  if (hooks.spans) {
    span = hooks.spans->begin("ParallelExecutor::run", hooks.parent);
    for (auto& c : cells) {
      c.delay = hyco::DelayAxis::adversarial(
          c.delay.name,
          timed_factory(c.delay.config, PassHooks{hooks.spans, span}));
    }
  }
  HostTimer timer;
  std::uint64_t cpu_ns = 0;
  for (std::uint64_t i = 0; i < w.chunks; ++i) {
    std::vector<hyco::RunSpan> spans;
    for (std::uint64_t c = 0; c < cells.size(); ++c) {
      const auto [begin, end] = slice(cells[c].runs, i, w.chunks);
      if (begin < end) spans.push_back({c, begin, end});
    }
    // Executor chunks are timed by their busy time (profiled CPU over the
    // threads): the idle tail of each chunk's last run is an artifact of
    // chunking, and exp.cpu_util reports executor idle time on its own.
    timer.chunk([&] {
      const std::uint64_t events0 = out.tally.events;
      const std::uint64_t chunk_cpu_ns = execute(cells, spans, out.tally);
      cpu_ns += chunk_cpu_ns;
      return ChunkWork{static_cast<double>(out.tally.events - events0),
                       1e-9 * static_cast<double>(chunk_cpu_ns) /
                           kExecutorThreads};
    });
  }
  if (hooks.spans) hooks.spans->end(span);
  out.cpu_s = 1e-9 * static_cast<double>(cpu_ns);
  out.wall_s = timer.wall_s();
  out.norm_s = timer.norm_s();
  out.host_speed = timer.host_speed();
  return out;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int service_width(const Workload& w) {
  const Workload& svc = w.kind == Kind::Service ? w : kWorkloads.front();
  return std::clamp(
      static_cast<int>(std::bit_width(svc.clients * svc.ops_per_client)), 1,
      64);
}

std::vector<hyco::ExperimentCell> consensus_cells(const Workload& w,
                                                  std::uint64_t seed) {
  if (w.kind != Kind::Consensus) return {};
  hyco::ExperimentSpec spec;
  spec.name = w.name;
  spec.algorithms = {hyco::Algorithm::HybridCommonCoin,
                     hyco::Algorithm::HybridLocalCoin};
  spec.layouts = {hyco::ClusterLayout::even(w.n, w.clusters)};
  if (w.faulty) {
    const hyco::ScenarioConfig scn = faulty_scenario();
    hyco::validate_scenario(scn, spec.layouts.front());
    spec.scenarios = {hyco::ScenarioAxis::of(scn)};
  }
  spec.inputs = hyco::InputKind::Split;
  spec.base_seed = derive_seed(seed, kRunStream, 0);
  std::vector<hyco::ExperimentCell> cells = spec.expand();
  cells.at(0).runs = w.runs_common;
  cells.at(1).runs = w.runs_local;
  return cells;
}

PassResult run_pass(const Workload& w, std::uint64_t seed,
                    const PassHooks& hooks) {
  return w.kind == Kind::Service ? service_pass(w, seed, hooks)
                                 : consensus_pass(w, seed, hooks);
}

Tally run_reference_unit(const Workload& w) {
  Tally t;
  if (w.kind == Kind::Service) {
    for (std::uint64_t k = 0; k < slice(w.runs, 0, w.chunks).second; ++k) {
      const hyco::ServiceRunConfig cfg = service_config(w, 0, k);
      add_service_run(t, cfg.seed, hyco::run_service(cfg));
    }
    return t;
  }
  const std::vector<hyco::ExperimentCell> cells = consensus_cells(w, 0);
  std::vector<hyco::RunSpan> spans;
  for (std::uint64_t c = 0; c < cells.size(); ++c) {
    spans.push_back({c, 0, slice(cells[c].runs, 0, w.chunks).second});
  }
  execute(cells, spans, t);
  return t;
}

TimedDelay::TimedDelay(std::unique_ptr<hyco::DelayModel> inner, SpanLog& log,
                       std::uint64_t parent)
    : inner_(std::move(inner)), log_(log), parent_(parent) {
  kept_.reserve(kKeptSpans);
}

TimedDelay::~TimedDelay() {
  log_.add_total("delay_draw", total_);
  for (Span& s : kept_) {
    s.id = log_.next_id();
    log_.add(s);
  }
}

hyco::SimTime TimedDelay::delay(hyco::ProcId from, hyco::ProcId to,
                                const hyco::Message& m, hyco::SimTime now,
                                hyco::Rng& rng) {
  const std::uint64_t t0 = log_.now_ns();
  const hyco::SimTime d = inner_->delay(from, to, m, now, rng);
  const std::uint64_t t1 = log_.now_ns();
  ++total_.count;
  total_.total_ns += t1 - t0;
  if (kept_.size() < kKeptSpans) {
    kept_.push_back(Span{0, parent_, "delay_draw", t0, t1});
  }
  return d;
}

}  // namespace perfbench
