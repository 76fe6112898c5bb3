// perfbench_driver — one in-process scenario run for the end-to-end
// benchmark (perfbench/run.py drives it once per iteration).
//
//   perfbench_driver --scenario steady --nodes 512 --seed 7
//                    --report r.json --metrics m.json [--traced]
//
// Untraced: times set-up (setup_s: from the start of ScenarioRunner
// construction to the first scheduler unit, so phase 0's bootstrap actions
// count) and the rest of run() (run_s), and writes the report exactly as
// `ssps_run --out` would. The end of set-up is stamped by SetupClock, a
// forwarding decorator around the serial scheduler.
//
// Traced: the same run, with spans taken from outside the program around
// calls into its public functions:
//   - sched::Scheduler::advance / sample, through TimingScheduler, a
//     forwarding decorator installed with Network::set_scheduler;
//   - ScenarioRunner::run_phase per phase, and one check_oracle() at the end;
//   - wire::encode_message / decode_message over the in-flight set at
//     every kWireStride-th unit (run.py subtracts their time from run_s);
//   - publication_key / PatriciaTrie::insert / root, replayed after the run
//     over the largest publication store in the deployment.
// The decorator only observes, so the traced report must be byte-identical
// to the untraced one; run.py checks that.
//
// Exit: 0 when the report is ok (converged, oracle-green), 1 when the
// scenario failed (both output files are still written), 2 on usage or
// I/O errors.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pubsub/hash.hpp"
#include "pubsub/patricia.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/topics.hpp"
#include "scenario/builtin.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "sched/serial.hpp"
#include "sim/network.hpp"
#include "wire/codec.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace ssps;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Encodes the in-flight set, decodes every frame into a private pool, and
/// checks that each decoded message re-encodes to the same bytes.
struct WireReplay {
  sim::MessagePool pool;
  std::vector<std::uint8_t> frames;
  std::vector<std::size_t> ends;
  std::vector<sim::PooledMsg> decoded;
  std::vector<std::uint8_t> again;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t skipped = 0;     ///< messages without a wire encoding
  std::uint64_t mismatches = 0;  ///< decode failures or re-encode diffs
  double encode_s = 0.0;
  double decode_s = 0.0;

  void replay(const sim::Network& net, std::size_t cap) {
    frames.clear();
    ends.clear();
    std::size_t visited = 0;
    const auto t0 = Clock::now();
    net.for_each_pending([&](const sim::Envelope& env) {
      if (visited++ >= cap) return;
      if (wire::encode_message(*env.msg, frames)) {
        ends.push_back(frames.size());
      } else {
        ++skipped;
      }
    });
    const auto t1 = Clock::now();
    std::size_t begin = 0;
    for (std::size_t end : ends) {
      decoded.push_back(wire::decode_message(
                            std::span<const std::uint8_t>(frames).subspan(begin, end - begin),
                            pool)
                            .msg);
      begin = end;
    }
    const auto t2 = Clock::now();
    encode_s += seconds_between(t0, t1);
    decode_s += seconds_between(t1, t2);

    begin = 0;
    for (std::size_t i = 0; i < ends.size(); ++i) {
      const std::span<const std::uint8_t> original =
          std::span<const std::uint8_t>(frames).subspan(begin, ends[i] - begin);
      again.clear();
      if (!decoded[i] || !wire::encode_message(*decoded[i], again) ||
          !std::equal(again.begin(), again.end(), original.begin(), original.end())) {
        ++mismatches;
      }
      begin = ends[i];
    }
    msgs += ends.size();
    bytes += frames.size();
    decoded.clear();
  }
};

/// Forwarding Scheduler decorator that stamps the start of the first unit,
/// which ends set-up. Changes nothing about the execution (same delivery
/// order, same probe samples), like sched::HookScheduler.
class SetupClock : public sched::Scheduler {
 public:
  explicit SetupClock(std::unique_ptr<sched::Scheduler> inner) : inner_(std::move(inner)) {}

  std::size_t advance(sim::Network& net) override {
    mark_first_unit();
    return inner_->advance(net);
  }

  Unit unit() const override { return inner_->unit(); }
  void sample(sim::Network& net, std::size_t delivered) override {
    inner_->sample(net, delivered);
  }
  std::size_t settle_stride(const sim::Network& net) const override {
    return inner_->settle_stride(net);
  }
  void flush_metrics(sim::Network& net) override { inner_->flush_metrics(net); }
  void retire() override { inner_->retire(); }
  unsigned threads() const override { return inner_->threads(); }
  std::string_view name() const override { return inner_->name(); }
  std::size_t reserved_bytes() const override { return inner_->reserved_bytes(); }

  /// Start of the first unit; unset while no unit has run.
  const std::optional<Clock::time_point>& first_unit() const { return first_unit_; }

 protected:
  void mark_first_unit() {
    if (!first_unit_) first_unit_ = Clock::now();
  }

  std::unique_ptr<sched::Scheduler> inner_;

 private:
  std::optional<Clock::time_point> first_unit_;
};

/// SetupClock that also times every advance() and sample() of the wrapped
/// scheduler and records the in-flight count and arena size at each unit
/// boundary.
class TimingScheduler final : public SetupClock {
 public:
  static constexpr std::size_t kWireStride = 4;
  static constexpr std::size_t kWireCap = 2048;

  using SetupClock::SetupClock;

  std::size_t advance(sim::Network& net) override {
    mark_first_unit();
    ++units_;
    inflight_.push_back(static_cast<double>(net.pending_messages()));
    if (units_ % kWireStride == 0) {
      const auto r0 = Clock::now();
      wire_.replay(net, kWireCap);
      replay_s_ += seconds_between(r0, Clock::now());
    }
    const auto t0 = Clock::now();
    const std::size_t delivered = inner_->advance(net);
    const double took = seconds_between(t0, Clock::now());
    advance_s_ += took;
    unit_ms_.push_back(took * 1e3);
    delivered_ += delivered;
    pool_max_ = std::max(pool_max_, net.pool_reserved_bytes());
    return delivered;
  }

  void sample(sim::Network& net, std::size_t delivered) override {
    const auto t0 = Clock::now();
    inner_->sample(net, delivered);
    sample_s_ += seconds_between(t0, Clock::now());
  }

  double advance_s() const { return advance_s_; }
  double sample_s() const { return sample_s_; }
  double replay_s() const { return replay_s_; }
  std::uint64_t delivered() const { return delivered_; }
  std::size_t pool_max() const { return pool_max_; }
  const std::vector<double>& unit_ms() const { return unit_ms_; }
  const std::vector<double>& inflight() const { return inflight_; }
  const WireReplay& wire() const { return wire_; }

 private:
  std::size_t units_ = 0;
  double advance_s_ = 0.0;
  double sample_s_ = 0.0;
  double replay_s_ = 0.0;
  std::uint64_t delivered_ = 0;
  std::size_t pool_max_ = 0;
  std::vector<double> unit_ms_;
  std::vector<double> inflight_;
  WireReplay wire_;
};

/// Per-call cost of the publication store's public functions, replayed
/// over one member's publications after the run.
struct TrieReplay {
  bool root_matches = true;
  double key_ns = 0.0;
  double insert_ns = 0.0;
  double dup_insert_ns = 0.0;
  double root_ns = 0.0;
};

volatile std::uint64_t g_sink = 0;

/// The largest publication store in the deployment (all converged stores
/// of one topic are equal, so any largest one will do).
const pubsub::PatriciaTrie* largest_trie(scenario::ScenarioRunner& runner) {
  const pubsub::PatriciaTrie* best = nullptr;
  auto consider = [&best](const pubsub::PatriciaTrie& t) {
    if (best == nullptr || t.size() > best->size()) best = &t;
  };
  if (runner.spec().mode == scenario::Mode::kSingleTopic) {
    for (sim::NodeId id : runner.single().subscriber_ids()) {
      consider(runner.single().pubsub(id).trie());
    }
  } else {
    for (sim::NodeId id : runner.client_ids()) {
      auto& node = runner.net().node_as<pubsub::MultiTopicNode>(id);
      for (pubsub::TopicId topic : node.topics()) consider(node.pubsub(topic).trie());
    }
  }
  return best;
}

TrieReplay replay_trie(scenario::ScenarioRunner& runner, std::uint64_t seed) {
  TrieReplay out;
  std::vector<pubsub::Publication> pubs;
  std::size_t m = 64;
  std::optional<pubsub::NodeSummary> expect;
  if (const pubsub::PatriciaTrie* t = largest_trie(runner); t != nullptr && !t->empty()) {
    pubs = t->all();
    m = t->key_bits();
    expect = t->root();
  } else {
    // No publication on this workload's path: price the calls on a small
    // seeded corpus so the per-call figures stay defined.
    for (std::uint64_t i = 0; i < 256; ++i) {
      pubs.push_back({sim::NodeId{1 + i % 16},
                      "perfbench-" + std::to_string(seed) + "-" + std::to_string(i), 0});
    }
  }

  // Each loop repeats until it has run for at least kMinLoop seconds, so a
  // small corpus still gives a measurable span.
  constexpr double kMinLoop = 0.02;
  std::uint64_t sink = 0;

  std::size_t calls = 0;
  auto t0 = Clock::now();
  do {
    for (const pubsub::Publication& p : pubs) {
      sink += pubsub::publication_key(p.origin, p.payload, m).size();
    }
    calls += pubs.size();
  } while (seconds_between(t0, Clock::now()) < kMinLoop);
  out.key_ns = seconds_between(t0, Clock::now()) * 1e9 / calls;

  double insert_s = 0.0;
  double dup_s = 0.0;
  std::size_t rounds = 0;
  do {
    pubsub::PatriciaTrie fresh(m);
    const auto a = Clock::now();
    for (const pubsub::Publication& p : pubs) sink += fresh.insert(p) ? 1 : 0;
    const auto b = Clock::now();
    for (const pubsub::Publication& p : pubs) sink += fresh.insert(p) ? 1 : 0;
    const auto c = Clock::now();
    insert_s += seconds_between(a, b);
    dup_s += seconds_between(b, c);
    if (rounds == 0 && expect) out.root_matches = fresh.root() == expect;
    ++rounds;
  } while (insert_s + dup_s < kMinLoop);
  out.insert_ns = insert_s * 1e9 / static_cast<double>(rounds * pubs.size());
  out.dup_insert_ns = dup_s * 1e9 / static_cast<double>(rounds * pubs.size());

  pubsub::PatriciaTrie built(m);
  for (const pubsub::Publication& p : pubs) built.insert(p);
  calls = 0;
  t0 = Clock::now();
  do {
    for (int i = 0; i < 1024; ++i) sink += built.root()->label.size();
    calls += 1024;
  } while (seconds_between(t0, Clock::now()) < kMinLoop);
  out.root_ns = seconds_between(t0, Clock::now()) * 1e9 / calls;

  g_sink = sink;
  return out;
}

struct Options {
  std::string scenario;
  std::uint64_t seed = 1;
  std::size_t nodes = 0;
  std::string report_path;
  std::string metrics_path;
  bool traced = false;
};

void write_array(std::FILE* f, const char* key, const std::vector<double>& v) {
  std::fprintf(f, "  \"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) std::fprintf(f, "%s%.6g", i ? "," : "", v[i]);
  std::fprintf(f, "],\n");
}

/// setup_s and run_s of one run that started constructing at `t0`, ran its
/// first unit at `first_unit` (unset: it never advanced, so all of it was
/// set-up) and ended at `end`.
std::pair<double, double> split_setup(Clock::time_point t0,
                                      const std::optional<Clock::time_point>& first_unit,
                                      Clock::time_point end) {
  const Clock::time_point mark = first_unit.value_or(end);
  return {seconds_between(t0, mark), seconds_between(mark, end)};
}

int run_untraced(const Options& o, std::FILE* mf) {
  scenario::ScenarioSpec spec = scenario::builtin_scenario(o.scenario, o.seed, o.nodes);
  const auto t0 = Clock::now();
  scenario::ScenarioRunner runner(std::move(spec));
  auto setup = std::make_unique<SetupClock>(std::make_unique<sched::SerialScheduler>());
  const SetupClock& clock = *setup;
  runner.net().set_scheduler(std::move(setup));
  const double cpu0 = cpu_seconds();
  const scenario::ScenarioReport& report = runner.run();
  const auto end = Clock::now();
  const double cpu_s = cpu_seconds() - cpu0;
  const auto [setup_s, run_s] = split_setup(t0, clock.first_unit(), end);
  if (!scenario::write_json_file(o.report_path, report.to_json())) return 2;

  std::fprintf(mf, "{\n  \"setup_s\": %.9g,\n  \"run_s\": %.9g,\n  \"cpu_s\": %.9g\n}\n",
               setup_s, run_s, cpu_s);
  return report.ok && report.oracle_ok ? 0 : 1;
}

int run_traced(const Options& o, std::FILE* mf) {
  scenario::ScenarioSpec spec = scenario::builtin_scenario(o.scenario, o.seed, o.nodes);
  const auto t0 = Clock::now();
  scenario::ScenarioRunner runner(std::move(spec));
  auto timing = std::make_unique<TimingScheduler>(std::make_unique<sched::SerialScheduler>());
  TimingScheduler& clock = *timing;
  runner.net().set_scheduler(std::move(timing));

  const double cpu0 = cpu_seconds();
  std::vector<std::pair<std::string, double>> phases;
  for (std::size_t i = 0; i < runner.spec().phases.size(); ++i) {
    const auto p0 = Clock::now();
    const scenario::PhaseReport& pr = runner.run_phase(i);
    phases.emplace_back(pr.name, seconds_between(p0, Clock::now()));
  }
  const scenario::ScenarioReport& report = runner.run();  // finalizes only
  const auto end = Clock::now();
  const double cpu_s = cpu_seconds() - cpu0;
  const auto [setup_s, run_s] = split_setup(t0, clock.first_unit(), end);
  if (!scenario::write_json_file(o.report_path, report.to_json())) return 2;

  const auto o0 = Clock::now();
  const oracle::OracleReport sweep = runner.check_oracle();
  const double oracle_ms = seconds_between(o0, Clock::now()) * 1e3;
  const TrieReplay trie = replay_trie(runner, o.seed);
  const WireReplay& wire = clock.wire();

  std::fprintf(mf, "{\n  \"setup_s\": %.9g,\n  \"run_s\": %.9g,\n  \"cpu_s\": %.9g,\n",
               setup_s, run_s, cpu_s);
  std::fprintf(mf, "  \"phases\": [");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    std::fprintf(mf, "%s{\"name\": \"%s\", \"wall_s\": %.9g}", i ? ", " : "",
                 phases[i].first.c_str(), phases[i].second);
  }
  std::fprintf(mf, "],\n");
  std::fprintf(mf,
               "  \"advance_s\": %.9g,\n  \"sample_s\": %.9g,\n  \"replay_s\": %.9g,\n"
               "  \"delivered\": %llu,\n  \"pool_max_bytes\": %zu,\n",
               clock.advance_s(), clock.sample_s(), clock.replay_s(),
               static_cast<unsigned long long>(clock.delivered()), clock.pool_max());
  write_array(mf, "unit_ms", clock.unit_ms());
  write_array(mf, "inflight", clock.inflight());
  std::fprintf(mf,
               "  \"wire\": {\"msgs\": %llu, \"bytes\": %llu, \"skipped\": %llu, "
               "\"mismatches\": %llu, \"encode_s\": %.9g, \"decode_s\": %.9g},\n",
               static_cast<unsigned long long>(wire.msgs),
               static_cast<unsigned long long>(wire.bytes),
               static_cast<unsigned long long>(wire.skipped),
               static_cast<unsigned long long>(wire.mismatches), wire.encode_s,
               wire.decode_s);
  std::fprintf(mf,
               "  \"trie\": {\"root_matches\": %s, \"key_ns\": %.9g, \"insert_ns\": %.9g, "
               "\"dup_insert_ns\": %.9g, \"root_ns\": %.9g},\n",
               trie.root_matches ? "true" : "false", trie.key_ns, trie.insert_ns,
               trie.dup_insert_ns, trie.root_ns);
  std::fprintf(mf, "  \"oracle\": {\"check_ms\": %.9g, \"violations\": %zu}\n}\n", oracle_ms,
               sweep.violations.size());
  return report.ok && report.oracle_ok ? 0 : 1;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --scenario <name> --report <file> --metrics <file>\n"
               "                        [--seed <u64>] [--nodes <n>] [--traced]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (arg == "--traced") {
      o.traced = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    if (arg == "--scenario") {
      o.scenario = v;
    } else if (arg == "--report") {
      o.report_path = v;
    } else if (arg == "--metrics") {
      o.metrics_path = v;
    } else if (arg == "--seed" && parse_u64(v, n)) {
      o.seed = n;
    } else if (arg == "--nodes" && parse_u64(v, n)) {
      o.nodes = static_cast<std::size_t>(n);
    } else {
      return usage();
    }
  }
  if (o.scenario.empty() || o.report_path.empty() || o.metrics_path.empty() ||
      !scenario::is_builtin(o.scenario)) {
    return usage();
  }
  std::FILE* mf = std::fopen(o.metrics_path.c_str(), "w");
  if (mf == nullptr) return 2;
  const int rc = o.traced ? run_traced(o, mf) : run_untraced(o, mf);
  if (std::fclose(mf) != 0) return 2;
  return rc;
}
