#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "exp/sink.h"
#include "service/service_runner.h"
#include "util/rng.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t k) {
  return hyco::mix64(hyco::mix64(workload_seed, stream), k);
}

void Tally::add_run_fingerprint(std::uint64_t seed, std::uint64_t ev,
                                std::uint64_t m, std::uint64_t dec) {
  fingerprint = hyco::mix64(
      fingerprint, hyco::mix64(seed, hyco::mix64(ev, hyco::mix64(m, dec))));
}

void Tally::note_violation(const std::string& what) {
  ++violations;
  if (violation_notes.size() < 8) violation_notes.push_back(what);
}

double Tally::failed_share() const {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed()) / static_cast<double>(attempted);
}

bool Tally::same_counts(const Tally& o) const {
  return runs == o.runs && attempted == o.attempted &&
         completed == o.completed && events == o.events && msgs == o.msgs &&
         delivered == o.delivered && decisions == o.decisions &&
         rounds == o.rounds && fingerprint == o.fingerprint &&
         latency.raw_sum() == o.latency.raw_sum();
}

void add_service_run(Tally& t, std::uint64_t seed,
                     const hyco::ServiceRunResult& r) {
  ++t.runs;
  t.attempted += r.ops_submitted;
  t.completed += r.ops_completed;
  if (!r.safe_ok || !r.violations.empty()) {
    std::ostringstream os;
    os << "service seed " << seed << ": "
       << (r.violations.empty() ? "checker failed" : r.violations.front());
    t.note_violation(os.str());
  }
  t.events += r.events;
  t.msgs += r.net.unicasts_sent;
  t.delivered += r.net.delivered;
  t.lost += r.net.dropped_lost;
  t.duplicated += r.net.duplicated;
  t.held += r.net.held_partitioned;
  t.shm_ops += r.shm.reads + r.shm.writes + r.shm.cas_attempts +
               r.shm.ll_ops + r.shm.sc_attempts;
  t.shm_proposals += r.shm.consensus_proposals;
  t.consensus_objects += r.consensus_objects;
  t.decisions += r.slots;
  const auto longest = std::max_element(
      r.slot_logs.begin(), r.slot_logs.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  if (longest != r.slot_logs.end()) {
    t.noop_slots += static_cast<std::uint64_t>(
        std::count_if(longest->begin(), longest->end(),
                      [](const hyco::SlotRecord& s) { return s.batch == 0; }));
  }
  t.latency.merge(r.latency);
  if (r.latency.count() > 0) t.run_max.add(r.latency.raw_max());
  t.batch_wait.merge(r.batch_wait);
  t.seq_wait.merge(r.seq_wait);
  t.consensus.merge(r.consensus);
  t.add_run_fingerprint(seed, r.events, r.net.unicasts_sent, r.slots);
}

void add_consensus_record(Tally& t, const hyco::RunRecord& r) {
  using hyco::obs::ObsId;
  ++t.runs;
  ++t.attempted;
  if (r.terminated) ++t.completed;
  if (!r.safe_ok) {
    t.note_violation("consensus seed " + std::to_string(r.seed) +
                     ": agreement/validity/invariant check failed");
  }
  t.events += r.events;
  t.msgs += r.msgs;
  t.delivered += r.obs[ObsId::kDelivered];
  t.lost += r.obs[ObsId::kDroppedLost];
  t.duplicated += r.obs[ObsId::kDuplicated];
  t.held += r.obs[ObsId::kHeldPartitioned];
  t.coin_flips += r.obs[ObsId::kCoinFlips];
  t.shm_proposals += r.shm_proposals;
  t.consensus_objects += r.consensus_objects;
  if (r.terminated) {
    ++t.decisions;
    t.rounds += static_cast<std::uint64_t>(r.rounds);
    const auto at = static_cast<std::uint64_t>(r.decision_time);
    t.latency.add(at);
    t.run_max.add(at);
  }
  t.add_run_fingerprint(r.seed, r.events, r.msgs,
                        2 * static_cast<std::uint64_t>(r.rounds) +
                            (r.terminated ? 1 : 0));
}

CostSplit explain_cost(const UnitCosts& u, const OpWork& w,
                       double wall_per_op_ns) {
  CostSplit c;
  c.wall_per_op_ns = wall_per_op_ns;
  if (wall_per_op_ns <= 0) return c;
  c.sim = w.events * u.event_ns / wall_per_op_ns;
  c.net = w.msgs * u.net_msg_ns / wall_per_op_ns;
  c.protocol = w.msgs * u.protocol_msg_ns / wall_per_op_ns;
  c.residual = 1.0 - c.sim - c.net - c.protocol;
  return c;
}

SpanLog::SpanLog() : origin_ns_(0) { origin_ns_ = now_ns(); }

std::uint64_t SpanLog::now_ns() const {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t).count()) -
         origin_ns_;
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t SpanLog::begin(const char* name, std::uint64_t parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = next_id_++;
  spans_.push_back(s);
  return s.id;
}

void SpanLog::end(std::uint64_t id) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = t;
      return;
    }
  }
}

void SpanLog::add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

void SpanLog::add_total(const std::string& name, const SpanTotal& t) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, tot] : totals_) {
    if (n == name) {
      tot.count += t.count;
      tot.total_ns += t.total_ns;
      return;
    }
  }
  totals_.emplace_back(name, t);
}

SpanTotal SpanLog::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, tot] : totals_) {
    if (n == name) return tot;
  }
  return {};
}

SpanTotal SpanLog::span_sum(const std::string& name) const {
  SpanTotal t;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (name == s.name && s.end_ns >= s.start_ns) {
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
    }
  }
  return t;
}

void SpanLog::write_jsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  for (const auto& [n, tot] : totals_) {
    out << "{\"total\":\"" << n << "\",\"count\":" << tot.count
        << ",\"total_ns\":" << tot.total_ns << "}\n";
  }
}

double reference_seconds() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19);
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < 3'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[(x >> 40) & (table.size() - 1)] += x;
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Keeps the loop observable so it cannot be optimized away.
  if (table[x & (table.size() - 1)] == 0x5EED) table[0] = 0;
  return s;
}

void HostTimer::add(double wall, double busy, double ref_before,
                    double ref_after, double units) {
  wall_s_ += wall;
  const double ref = (ref_before + ref_after) / 2;
  const double speed = ref > 0 ? kReferenceSeconds / ref : 1.0;
  speeds_.push_back(speed);
  if (units <= 0) return;
  units_ += units;
  norm_per_unit_.push_back(busy * speed / units);
}

double HostTimer::norm_s() const { return median(norm_per_unit_) * units_; }

double HostTimer::host_speed() const {
  double sum = 0;
  for (double s : speeds_) sum += s;
  return speeds_.empty() ? 1.0 : sum / static_cast<double>(speeds_.size());
}

double HostTimer::now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 ? xs[m] : (xs[m - 1] + xs[m]) / 2.0;
}

}  // namespace perfbench
