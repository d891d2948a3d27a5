// gfc-perfbench: the benchmark driver. Runs one workload against the gfc
// libraries for a given wall-clock budget, times every public call it
// makes (perfbench/spans.hpp), checks the outputs (perfbench/checks.hpp)
// and prints one JSON document with the raw figures; perfbench/run.py
// builds this binary and turns that document into the benchmark's result
// line.
//
//   gfc-perfbench --workload k16_timeline|k4_campaign|k8_failure_sweep
//                 --seed N --seconds S --trace 0|1
//                 [--smoke] [--selftest] [--out-dir DIR]
//
// A run repeats whole rounds of the workload until S seconds have passed
// (at least one round). With --trace 1 it then runs the workload once
// more with the program's tracer on (per-category event counts) and, on
// k16_timeline, once on two PDES shards; the spans go to
// DIR/<workload>-seed<N>.spans.json.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/sweep.hpp"
#include "checks.hpp"
#include "exp/worker_pool.hpp"
#include "fault/link_scheduler.hpp"
#include "mech/cbd_routing.hpp"
#include "mech/registry.hpp"
#include "runner/scenarios.hpp"
#include "spans.hpp"
#include "stats/deadlock.hpp"
#include "topo/cbd.hpp"
#include "topo/scenario_gen.hpp"

// --- heap allocations ------------------------------------------------------
// While counting is on, every operator new in the process, the gfc
// libraries' included, counts into its thread's slot. Slots sit on their
// own cache lines so the pool's workers share none, and are summed only
// while no other thread runs (between rounds, after the pool has joined its
// workers). Each thread also tracks its live heap bytes and their
// high-water mark, so that the peak heap of one single-threaded unit of
// work (a round, a trial) is exact and does not depend on what runs beside
// it. Counting is on only in each run's counting round (run_rounds); the
// timed rounds pay one relaxed load per allocation and otherwise run the
// program's own allocation path.
namespace perfbench {
namespace {
constexpr std::size_t kAllocSlots = 4096;
struct alignas(64) AllocSlot {
  std::uint64_t n;
};
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<std::size_t> g_alloc_threads{0};
std::atomic<std::uint64_t> g_alloc_overflow{0};
thread_local std::uint64_t* t_alloc_slot = nullptr;
thread_local std::int64_t t_live_bytes = 0;
thread_local std::int64_t t_peak_bytes = 0;
std::atomic<bool> g_counting{false};

void count_alloc(void* p) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  t_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  t_peak_bytes = std::max(t_peak_bytes, t_live_bytes);
  if (t_alloc_slot == nullptr) {
    const std::size_t i =
        g_alloc_threads.fetch_add(1, std::memory_order_relaxed);
    if (i >= kAllocSlots) {
      g_alloc_overflow.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    t_alloc_slot = &g_alloc_slots[i].n;
  }
  ++*t_alloc_slot;
}

void count_free(void* p) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  t_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
}

/// Switched only while no other thread runs.
void set_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t heap_allocs() {
  const std::size_t used = std::min(
      g_alloc_threads.load(std::memory_order_relaxed), kAllocSlots);
  std::uint64_t n = g_alloc_overflow.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < used; ++i) n += g_alloc_slots[i].n;
  return n;
}

/// Peak heap of a unit of work on this thread: construct before it, read
/// after it.
class HeapPeak {
 public:
  HeapPeak() : base_(t_live_bytes) { t_peak_bytes = t_live_bytes; }
  double mb() const {
    return static_cast<double>(t_peak_bytes - base_) / (1024.0 * 1024.0);
  }

 private:
  std::int64_t base_;
};
}  // namespace
}  // namespace perfbench

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  perfbench::count_alloc(p);
  return p;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  perfbench::count_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

using namespace gfc;
using perfbench::Span;
using perfbench::timed;

namespace {

// --- small utilities ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gfc-perfbench: %s\nusage: gfc-perfbench --workload "
               "k16_timeline|k4_campaign|k8_failure_sweep --seed N --seconds "
               "S --trace 0|1 [--smoke] [--selftest] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      const std::string v = value();
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0) || a.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--selftest") {
      a.selftest = true;
    } else if (arg == "--out-dir") {
      a.out_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double resident_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Sum of the durations of spans named in `names` that belong to `round`.
double span_seconds(const std::vector<perfbench::SpanRecord>& recs, int round,
                    std::initializer_list<const char*> names) {
  double s = 0;
  for (const auto& r : recs)
    if (r.round == round)
      for (const char* n : names)
        if (std::strcmp(r.name, n) == 0) s += r.end_s - r.start_s;
  return s;
}

/// Self time per layer ("topo" of "topo.cbd_prone"), averaged over rounds
/// [0, rounds): each span's duration minus the part of it covered by its
/// child spans (children on worker threads may overlap; their union
/// counts once).
std::map<std::string, double> layer_self_seconds(
    const std::vector<perfbench::SpanRecord>& recs, int rounds) {
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const auto& r : recs)
    if (r.parent >= 0) children[r.parent].push_back({r.start_s, r.end_s});
  std::map<std::string, double> self;
  for (const auto& r : recs) {
    if (r.round < 0 || r.round >= rounds) continue;
    double covered = 0, reach = r.start_s;
    auto& kids = children[r.id];
    std::sort(kids.begin(), kids.end());
    for (const auto& [b, e] : kids) {
      const double lo = std::max({b, reach, r.start_s});
      const double hi = std::min(e, r.end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[std::string(r.name, perfbench::SpanLog::layer_len(r.name))] +=
        (r.end_s - r.start_s - covered) / rounds;
  }
  return self;
}

/// Minimal JSON object writer (numbers, strings, bools, nested objects).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.text()); }
  Json& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(k);
    body_ += ':';
    body_ += v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

std::string checks_json(const perfbench::Checks& checks) {
  std::string out = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ',';
    out += Json()
               .str("name", checks[i].name)
               .boolean("ok", checks[i].ok)
               .str("detail", checks[i].detail)
               .text();
  }
  return out + "]";
}

// --- program tracer counts ------------------------------------------------------

/// Per-event-type counts of a finished traced run.
struct TraceCounts {
  std::array<std::uint64_t, static_cast<std::size_t>(
                                trace::EventType::kNumEventTypes)>
      by_type{};
  std::uint64_t port = 0;  // kCatPort records
  std::uint64_t dropped = 0;

  void add_buffer(const trace::TraceBuffer& b) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      const trace::TraceEvent& e = b[i];
      ++by_type[e.type];
      if (e.category() == trace::kCatPort) ++port;
    }
    dropped += b.dropped();
  }
  void add(const TraceCounts& o) {
    for (std::size_t i = 0; i < by_type.size(); ++i) by_type[i] += o.by_type[i];
    port += o.port;
    dropped += o.dropped;
  }
  std::uint64_t of(std::initializer_list<trace::EventType> types) const {
    std::uint64_t n = 0;
    for (const trace::EventType t : types)
      n += by_type[static_cast<std::size_t>(t)];
    return n;
  }
};

trace::TraceOptions tracer_options(std::size_t capacity) {
  trace::TraceOptions t;
  t.enabled = true;
  t.capacity = capacity;  // sized so the ring never overwrites
  t.flight_window = 0;
  return t;
}

/// Per-layer work counts shared by the simulation workloads.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t deadlock_detections = 0;
  std::uint64_t wire_lost = 0;
  std::uint64_t flaps = 0;
  std::uint64_t reverdicts = 0;
  std::uint64_t bdg_edges = 0;
  TraceCounts trace;

  void add(const SimCounts& o) {
    events += o.events;
    control_frames += o.control_frames;
    flows_started += o.flows_started;
    deadlock_detections += o.deadlock_detections;
    wire_lost += o.wire_lost;
    flaps += o.flaps;
    reverdicts += o.reverdicts;
    bdg_edges += o.bdg_edges;
    trace.add(o.trace);
  }
};

void add_sim_layers(Json& j, const SimCounts& c) {
  using E = trace::EventType;
  j.count("sim.events", c.events)
      .count("sim.wake_arms", c.trace.of({E::kWakeArm}))
      .count("sim.wake_cancels", c.trace.of({E::kWakeCancel}))
      .count("sim.wake_fires", c.trace.of({E::kWakeFire}))
      .count("net.port_events", c.trace.port)
      .count("net.control_frames", c.control_frames)
      .count("flowctl.pfc_frames", c.trace.of({E::kPauseTx, E::kResumeTx}))
      .count("flowctl.credit_frames", c.trace.of({E::kCreditTx}))
      .count("core.gfc_feedback_frames", c.trace.of({E::kStageTx, E::kQsampleTx}))
      .count("core.rate_sets", c.trace.of({E::kRateSet}))
      .count("mech.dcfit_triggers",
             c.trace.of({E::kTriggerOriginate, E::kTriggerPropagate}))
      .count("stats.deadlock_detections", c.deadlock_detections)
      .count("workload.flows_started", c.flows_started)
      .count("fault.flaps", c.flaps)
      .count("fault.wire_lost", c.wire_lost)
      .count("analyze.reverdicts", c.reverdicts)
      .count("topo.bdg_edges", c.bdg_edges);
}

std::uint64_t bdg_edge_count(const topo::Topology& t,
                             const topo::RoutingTable& routing) {
  topo::BufferDependencyGraph g(t);
  g.add_routing_closure(routing);
  std::uint64_t n = 0;
  for (const auto& out : g.adjacency()) n += out.size();
  return n;
}

// --- shared set-up ----------------------------------------------------------------

/// runner::make_fattree, step by step so that each public call is timed:
/// build, route (shortest paths, or up*/down* when the mechanism asks),
/// screen for CBDs, build the fabric, install its routes. Only the traced
/// run's split pass uses it, for the per-layer set-up figures; every other
/// round times runner::make_fattree itself (see set_up_fattree).
runner::FatTreeScenario build_fattree_fabric(
    const runner::ScenarioConfig& cfg, int k,
    const std::vector<topo::LinkIndex>& failures, double* fabric_rss_mb) {
  runner::FatTreeScenario s;
  s.info = timed("topo.build_fattree",
                 [&] { return topo::build_fattree(s.topo, k); });
  for (const topo::LinkIndex l : failures) s.topo.fail_link(l);
  s.failed_links = failures;
  if (cfg.fc.cbd_free_routing)
    s.routing = timed("mech.cbd_free_routes", [&] {
      return mech::cbd_free_routes(s.topo, &s.route_stats);
    });
  else
    s.routing = timed("topo.compute_shortest_paths",
                      [&] { return topo::compute_shortest_paths(s.topo); });
  s.cbd_prone = timed("topo.cbd_prone",
                      [&] { return topo::cbd_prone(s.topo, s.routing); });
  const double rss0 = resident_mb();
  s.fabric = timed("runner.Fabric", [&] {
    return std::make_unique<runner::Fabric>(s.topo, cfg);
  });
  timed("runner.install_routing",
        [&] { s.fabric->install_routing(s.topo, s.routing); });
  *fabric_rss_mb = resident_mb() - rss0;
  return s;  // named return, as in runner::make_fattree
}

/// A fat-tree scenario: the program's runner::make_fattree in one span, or,
/// with `split`, the step-by-step copy above. Both branches are prvalues,
/// so the scenario is built in the caller's object (its fabric keeps a
/// pointer to its topology).
runner::FatTreeScenario set_up_fattree(
    const runner::ScenarioConfig& cfg, int k,
    const std::vector<topo::LinkIndex>& failures, bool split,
    double* fabric_rss_mb) {
  return split ? build_fattree_fabric(cfg, k, failures, fabric_rss_mb)
               : timed("runner.make_fattree", [&] {
                   return runner::make_fattree(cfg, k, failures);
                 });
}

runner::ScenarioConfig config_for(const mech::MechSpec& spec,
                                  std::uint64_t seed) {
  runner::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.switch_buffer = 300'000;
  const auto fc =
      mech::setup_for(spec, cfg.switch_buffer, cfg.link.rate, cfg.tau());
  if (!fc) throw std::runtime_error("no safe setup for " + spec.name);
  cfg.fc = *fc;
  return cfg;
}

const mech::MechSpec& mechanism(const char* name) {
  const mech::MechSpec* m = mech::find_mechanism(name);
  if (m == nullptr) throw std::runtime_error(std::string("no mechanism ") + name);
  return *m;
}

/// What every workload hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  perfbench::Checks checks;
  Json end_to_end;
  Json per_layer;  // trace mode only
  Json detail;
  std::string selftest;  // JSON array, --selftest only
  int timed_rounds = 0;
  double round_s = 0;    // the run's wall_s (reported, not gated)
  double ops_per_s = 0;  // the run's ops_per_s (reported, not gated)
};

struct RoundTimes {
  double wall_s = 0;
  double setup_s = 0;
  double ops = 0;       // workload operations completed in the round
  double ops_time_s = 0;  // time of the phase that completed them
};

/// The end-to-end figures: set-up time, round wall time and throughput
/// over the timed rounds, the peak heap of the counting round's unit of
/// work and its heap allocations, and the process's peak RSS. The gated
/// ones are set-up time and the two heap figures; round time, throughput
/// and RSS are reported but not gated, since their ten-run spreads on a
/// shared VM exceeded the largest bound (see perfbench/README.md). Where
/// every round gets the same inputs
/// (`same_inputs`), each time is the best timed round's: other tenants of
/// a shared machine only ever add time, in bursts of seconds, so the
/// fastest round is the least disturbed measure of the same work. Where
/// each round draws its own inputs, the best round would be the smallest
/// input, so each time is the median round's.
void add_end_to_end(Outcome& o, const std::vector<RoundTimes>& rounds,
                    bool same_inputs, double heap_mb, double allocs) {
  std::vector<double> wall, setup, rate;
  for (const RoundTimes& r : rounds) {
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    rate.push_back(r.ops / r.ops_time_s);
  }
  auto time_of = [&](const std::vector<double>& v) {
    return same_inputs ? *std::min_element(v.begin(), v.end()) : median(v);
  };
  o.timed_rounds = static_cast<int>(rounds.size());
  o.round_s = time_of(wall);
  o.ops_per_s = same_inputs ? *std::max_element(rate.begin(), rate.end())
                            : median(rate);
  o.end_to_end.num("setup_s", time_of(setup))
      .num("wall_s", o.round_s)
      .num("ops_per_s", o.ops_per_s)
      .num("peak_heap_mb", heap_mb)
      .num("heap_allocs", allocs)
      .num("peak_rss_mb", peak_rss_mb())
      .count("rounds", rounds.size());
}

/// Run the counting round, round(-1), with the counting allocator on, then
/// the timed rounds round(0), round(1), ... with it off, until `seconds`
/// have passed since the start (at least one timed round). The counting
/// round also warms the caches and the heap; no time of it is reported.
/// Returns the counting round's heap allocations.
template <typename Fn>
double run_rounds(double seconds, Fn&& round) {
  perfbench::SpanLog& log = perfbench::SpanLog::get();
  const double t0 = log.now();
  log.set_round(-1);
  perfbench::set_counting(true);
  const std::uint64_t before = perfbench::heap_allocs();
  round(-1);
  const double allocs =
      static_cast<double>(perfbench::heap_allocs() - before);
  perfbench::set_counting(false);
  int i = 0;
  do {
    log.set_round(i);
    round(i);
    ++i;
  } while (log.now() - t0 < seconds);
  return allocs;
}

/// The checks on the clean records, then on each corrupted copy: every
/// entry's "ok" says the clean records passed, or the corruption tripped
/// the check it targets.
template <typename Data>
std::string run_selftest(const Data& clean,
                         perfbench::Checks (*check)(const Data&),
                         const std::vector<perfbench::Corruption<Data>>& cs) {
  std::string out = "[";
  out += Json()
             .str("corruption", "none")
             .boolean("ok", perfbench::all_ok(check(clean)))
             .text();
  for (const auto& c : cs) {
    Data d = clean;
    bool ok = false;
    std::string note;
    try {
      c.apply(d);
      for (const perfbench::CheckResult& r : check(d))
        if (r.name == c.must_fail) {
          ok = !r.ok;
          note = r.detail;
        }
    } catch (const std::exception& e) {
      note = e.what();
    }
    out += ',';
    out += Json()
               .str("corruption", c.name)
               .str("must_fail", c.must_fail)
               .boolean("ok", ok)
               .str("detail", note)
               .text();
  }
  return out + "]";
}

// --- k16_timeline ---------------------------------------------------------------------

struct TimelineResult {
  perfbench::TimelineRun run;
  SimCounts counts;
  bool prone = false;
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;
  double heap_mb = 0;
};

Outcome timeline(const Args& a) {
  // The BM_FatTreeK16FullFidelity recipe, shortened: k=16 (1,024 hosts,
  // 320 switches), no failures, buffer-based GFC, closed-loop enterprise
  // workload from t = 0, one thread.
  const int k = a.smoke ? 8 : 16;
  const sim::TimePs duration = a.smoke ? sim::us(200) : sim::ms(1);
  runner::ScenarioConfig cfg;
  cfg.fc = runner::FcSetup::derive(runner::FcKind::kGfcBuffer,
                                   cfg.switch_buffer, cfg.link.rate, cfg.tau());
  cfg.seed = a.seed;
  runner::RunOptions opts;
  opts.duration = duration;
  opts.warmup = duration / 5;
  opts.workload_seed = a.seed * 1'000'003 + 11;

  auto one_run = [&](bool traced, int shards) {
    TimelineResult out;
    runner::ScenarioConfig c = cfg;
    c.shards = shards;
    if (traced) c.trace = tracer_options(std::size_t{1} << (a.smoke ? 22 : 24));
    Span round("bench.round");
    const perfbench::HeapPeak heap;
    Span setup("bench.setup");
    runner::FatTreeScenario s = set_up_fattree(c, k, {}, false, nullptr);
    out.setup_s = setup.stop();
    runner::RunSummary r;
    {
      Span run("runner.run_closed_loop");
      r = runner::run_closed_loop(s, opts);
      out.run_s = run.stop();
    }
    out.wall_s = round.stop();
    out.heap_mb = heap.mb();
    net::Network& net = s.fabric->net();
    out.prone = s.cbd_prone;
    out.run = {r.deadlocked,       r.lossless_violations,
               net.counters().route_drops, r.per_host_gbps,
               r.flows_started,    r.flows_completed,
               net.executed_events()};
    out.counts.events = net.executed_events();
    out.counts.control_frames = net.counters().control_frames_sent;
    out.counts.flows_started = r.flows_started;
    out.counts.deadlock_detections =
        static_cast<std::uint64_t>(r.deadlock_detections);
    if (traced) {
      out.counts.trace.add_buffer(s.fabric->tracer()->buffer());
      out.counts.bdg_edges = bdg_edge_count(s.topo, s.routing);
    }
    return out;
  };

  perfbench::TimelineData data;
  data.link_gbps = cfg.link.rate.gbps();
  std::vector<RoundTimes> rounds;
  std::vector<TimelineResult> results;  // the counting round first
  const double allocs = run_rounds(a.seconds, [&](int i) {
    TimelineResult r = one_run(false, 1);
    if (i >= 0)
      rounds.push_back({r.wall_s, r.setup_s, sim::to_us(duration), r.run_s});
    results.push_back(r);
  });

  Outcome o;
  add_end_to_end(o, rounds, true, results[0].heap_mb, allocs);
  auto& log = perfbench::SpanLog::get();
  if (a.trace || a.selftest) {
    const int base = static_cast<int>(rounds.size()) + 1;
    log.set_round(base);
    const TimelineResult traced = one_run(true, 1);
    log.set_round(base + 1);
    const TimelineResult sharded = one_run(false, 2);
    results.push_back(traced);
    results.push_back(sharded);
    // Split pass: the set-up once more, call by call, for the per-layer
    // set-up figures.
    log.set_round(base + 2);
    double fabric_rss = 0;
    {
      const runner::FatTreeScenario s =
          set_up_fattree(cfg, k, {}, true, &fabric_rss);
    }
    const auto recs = log.records();

    std::vector<double> run, ns_per_event, wall;
    for (std::size_t i = 1; i <= rounds.size(); ++i) {
      run.push_back(results[i].run_s);
      ns_per_event.push_back(results[i].run_s * 1e9 /
                             static_cast<double>(results[i].counts.events));
      wall.push_back(results[i].wall_s);
    }
    o.per_layer
        .num("topo.spf_s",
             span_seconds(recs, base + 2, {"topo.compute_shortest_paths"}))
        .num("topo.cbd_screen_s",
             span_seconds(recs, base + 2, {"topo.cbd_prone"}))
        .num("runner.fabric_s",
             span_seconds(recs, base + 2,
                          {"runner.Fabric", "runner.install_routing"}))
        .num("runner.fabric_rss_mb", fabric_rss)
        .num("sim.run_s", median(run))
        .num("sim.ns_per_event", median(ns_per_event))
        .num("par.speedup_2", median(run) / sharded.run_s)
        .num("trace.overhead", traced.wall_s / median(wall));
    add_sim_layers(o.per_layer, traced.counts);
  }
  for (const TimelineResult& r : results) {
    data.runs.push_back(r.run);
    data.pristine_prone = data.pristine_prone || r.prone;
  }
  if (a.trace || a.selftest) {
    // A ring that overwrote would undercount every per-category figure.
    perfbench::CheckResult ring{"trace_ring_complete", true, ""};
    const std::uint64_t dropped = results[results.size() - 2].counts.trace.dropped;
    if (dropped != 0) {
      ring.ok = false;
      ring.detail = std::to_string(dropped) + " trace records overwritten";
    }
    o.checks.push_back(ring);
  }
  const perfbench::Checks checks = perfbench::check_timeline(data);
  o.checks.insert(o.checks.end(), checks.begin(), checks.end());
  if (a.selftest)
    o.selftest = run_selftest(data, &perfbench::check_timeline,
                              perfbench::timeline_corruptions());

  std::uint64_t started = 0, completed = 0;
  for (const TimelineResult& r : results) {
    started += r.run.flows_started;
    completed += r.run.flows_completed;
  }
  // A flow cannot fail here: the fabric is lossless and nothing is cut
  // short but the timeline; packet losses fail the checks instead.
  o.attempted = started;
  o.failed = 0;
  o.detail.count("flows_started", started)
      .count("flows_completed", completed)
      .count("sim_events_per_round", results[0].counts.events)
      .count("hosts", static_cast<std::uint64_t>(k * k * k / 4));
  return o;
}

// --- k4_campaign ------------------------------------------------------------------------

struct ProneCase {
  std::uint64_t topo_seed;
  std::vector<topo::LinkIndex> failed;
  std::vector<topo::CbdStress::FlowSpec> stress_flows;
};
struct FreeCase {
  std::uint64_t topo_seed;
  std::vector<topo::LinkIndex> failed;
};
struct Scan {
  std::vector<ProneCase> prone;
  std::vector<FreeCase> free;
  int sampled = 0;
  int prone_seen = 0;
  int free_seen = 0;
  topo::LinkIndex flap_link = -1;
};

/// Table-1 / Fig-16/17 scan: random 5%-failure k=4 fat-trees, screened
/// statically. Screens Table 1's 160 candidates (more only if they hold
/// too few qualifying seeds), so the scan's work does not depend on the
/// seed, and keeps the first `want_prone` stress-coverable CBD-prone seeds
/// and the first `want_free` CBD-free ones. Candidates come from `seed`.
Scan scan_k4(std::uint64_t seed, int want_prone, int want_free) {
  constexpr int kCandidates = 160;
  Scan out;
  sim::Rng candidates(seed * 0x9E3779B97F4A7C15ull + 4);
  while (out.sampled < kCandidates ||
         static_cast<int>(out.prone.size()) < want_prone ||
         static_cast<int>(out.free.size()) < want_free) {
    if (out.sampled >= 5000)
      throw std::runtime_error("scan found too few qualifying seeds");
    ++out.sampled;
    const std::uint64_t topo_seed = candidates.engine()();
    topo::Topology t;
    timed("topo.build_fattree", [&] { return topo::build_fattree(t, 4); });
    sim::Rng rng(topo_seed);
    auto failed = timed("topo.random_failures",
                        [&] { return topo::random_failures(t, rng, 0.05); });
    const auto routing = timed("topo.compute_shortest_paths",
                               [&] { return topo::compute_shortest_paths(t); });
    const analyze::CbdScreen screen = timed(
        "analyze.screen_cbd", [&] { return analyze::screen_cbd(t, routing); });
    if (!screen.prone) {
      ++out.free_seen;
      if (static_cast<int>(out.free.size()) < want_free)
        out.free.push_back({topo_seed, std::move(failed)});
      continue;
    }
    ++out.prone_seen;
    if (static_cast<int>(out.prone.size()) >= want_prone) continue;
    auto stress = timed("topo.build_cbd_stress", [&] {
      return topo::build_cbd_stress(t, routing, screen.cycle, rng);
    });
    if (!stress.covered) continue;
    out.prone.push_back(
        {topo_seed, std::move(failed), std::move(stress.flows)});
  }
  topo::Topology t;
  topo::build_fattree(t, 4);
  const auto links = t.switch_links();
  sim::Rng pick(seed + 77);
  out.flap_link = links[pick.pick_index(links.size())];
  return out;
}

struct TrialSlot {
  perfbench::TrialOutcome outcome;
  SimCounts counts;
  double setup_s = 0;
  double run_s = 0;
  double trial_s = 0;
  double fabric_rss_mb = 0;
  double heap_mb = 0;
};

struct CampaignParams {
  int prone = 0;
  int free = 0;
  sim::TimePs duration = 0;
};

Outcome campaign(const Args& a) {
  // Trials last 12 ms of simulated time, as in Table 1 and Figs 16/17.
  const CampaignParams p = a.smoke ? CampaignParams{1, 1, sim::ms(12)}
                                   : CampaignParams{3, 3, sim::ms(12)};
  const char* stress_mechs[] = {"PFC",      "CBFC",       "GFC-buffer",
                                "GFC-time", "DCFIT-drop", "CBD-routing"};
  const char* paper_mechs[] = {"PFC", "CBFC", "GFC-buffer", "GFC-time"};
  constexpr int kWorkers = 2;

  // Round r draws its inputs from its own seed: the run's seed for the
  // counting round (r = -1) and the split and traced rounds, a seed derived
  // from it for each timed round. The timed rounds so cover many fabrics
  // and workloads, and their median does not hinge on the few that one
  // seed draws.
  auto round_seed = [&](int r) {
    return a.seed + 1'000'003ull * static_cast<std::uint64_t>(r + 1);
  };

  // One round = scan + every trial on one worker pool. Returns the scan.
  // `split` times each trial's set-up call by call (the traced run's split
  // round); otherwise it is one runner::make_fattree call.
  auto one_round = [&](std::uint64_t seed, bool traced, bool split,
                       std::vector<TrialSlot>* slots, RoundTimes* times,
                       double* heap_mb) {
    Span round("bench.round");
    Scan scan;
    double scan_s = 0;
    {
      Span s("bench.scan");
      scan = scan_k4(seed, p.prone, p.free);
      scan_s = s.stop();
    }
    const std::size_t n_trials = scan.prone.size() * std::size(stress_mechs) +
                                 scan.free.size() * std::size(paper_mechs) +
                                 std::size(paper_mechs);
    slots->assign(n_trials, TrialSlot{});
    exp::Campaign camp;
    camp.name = "perfbench_k4_campaign";
    camp.seed = seed;
    const std::size_t trace_cap = std::size_t{1} << 22;
    Span pool("exp.run_campaign");
    const int pool_span = pool.id();

    // Every trial: timed set-up, timed run, outcome into its own slot.
    auto add_trial = [&](std::string name, perfbench::TrialKind kind,
                         const mech::MechSpec* spec, bool scan_prone,
                         std::function<void(runner::ScenarioConfig&,
                                            TrialSlot&)>
                             body) {
      const std::size_t idx = camp.trials.size();
      TrialSlot* slot = &(*slots)[idx];
      slot->outcome.kind = kind;
      slot->outcome.mechanism = spec->name;
      slot->outcome.scan_prone = scan_prone;
      slot->outcome.lossless = spec->kind != runner::FcKind::kDcfit;
      camp.add(std::move(name), {},
               [slot, spec, body, traced, trace_cap, pool_span,
                seed] {
                 Span trial("exp.trial", pool_span);
                 const perfbench::HeapPeak heap;
                 runner::ScenarioConfig cfg = config_for(*spec, seed);
                 if (traced) cfg.trace = tracer_options(trace_cap);
                 body(cfg, *slot);
                 slot->heap_mb = heap.mb();
                 slot->trial_s = trial.stop();
                 return exp::TrialResult().add("ran", true);
               });
    };

    std::uint64_t case_no = 0;
    for (const ProneCase& c : scan.prone) {
      ++case_no;
      for (const char* m : stress_mechs) {
        const mech::MechSpec* spec = &mechanism(m);
        const sim::TimePs dur = p.duration;
        add_trial(
            "stress/" + std::to_string(case_no) + "/" + m,
            perfbench::TrialKind::kStress, spec, true,
            [c, spec, dur, traced, split](runner::ScenarioConfig& cfg,
                                          TrialSlot& slot) {
              // The oracle rides where deadlocks form: plain PFC and CBFC.
              const bool witness = !cfg.fc.cbd_free_routing &&
                                   (spec->kind == runner::FcKind::kPfc ||
                                    spec->kind == runner::FcKind::kCbfc);
              cfg.witness_check = witness;
              Span setup("bench.setup");
              runner::FatTreeScenario s = set_up_fattree(
                  cfg, 4, c.failed, split, &slot.fabric_rss_mb);
              slot.setup_s = setup.stop();
              net::Network& net = s.fabric->net();
              for (const auto& f : c.stress_flows)
                net.create_flow(f.src, f.dst, 0, net::Flow::kUnbounded, 0)
                    .path_salt = f.salt;
              stats::DeadlockOptions dl;
              // DCFIT must run past the first wedge: breaking it in-band
              // is the mechanism.
              dl.stop_on_detect = spec->kind != runner::FcKind::kDcfit;
              int witness_checks = 0;
              runner::Fabric* fabric = s.fabric.get();
              if (witness)
                dl.on_detect = [fabric,
                                &witness_checks](stats::DeadlockDetector& d) {
                  if (runner::check_witness_cycle(*fabric, d))
                    ++witness_checks;
                };
              stats::DeadlockDetector det(net, dl);
              {
                Span run("sim.run_until");
                net.run_until(dur);
                slot.run_s = run.stop();
              }
              perfbench::TrialOutcome& o = slot.outcome;
              o.fabric_prone = s.cbd_prone;
              o.witness_armed = witness;
              o.deadlocked = det.deadlocked();
              o.lossless_violations = net.counters().lossless_violations;
              o.witness_checks = witness_checks;
              const analyze::Report* rep = s.fabric->analysis();
              o.enumeration_truncated = rep != nullptr && rep->truncated;
              slot.counts.deadlock_detections =
                  static_cast<std::uint64_t>(det.detections());
              slot.counts.events = net.executed_events();
              slot.counts.control_frames = net.counters().control_frames_sent;
              if (traced) {
                slot.counts.trace.add_buffer(s.fabric->tracer()->buffer());
                slot.counts.bdg_edges = bdg_edge_count(s.topo, s.routing);
              }
              o.ran = true;
            });
      }
    }

    // Shared by the closed-loop and flap trials.
    auto closed_loop = [](runner::FatTreeScenario& s, sim::TimePs dur,
                          std::uint64_t workload_seed, TrialSlot& slot,
                          bool traced) {
      runner::RunOptions opts;
      opts.duration = dur;
      opts.warmup = dur / 12;
      opts.workload_seed = workload_seed;
      runner::RunSummary r;
      {
        Span run("runner.run_closed_loop");
        r = runner::run_closed_loop(s, opts);
        slot.run_s = run.stop();
      }
      net::Network& net = s.fabric->net();
      perfbench::TrialOutcome& o = slot.outcome;
      o.fabric_prone = s.cbd_prone;
      o.deadlocked = r.deadlocked;
      o.lossless_violations = r.lossless_violations;
      o.witness_checks = r.witness_checks;
      o.per_host_gbps = r.per_host_gbps;
      o.flows_started = r.flows_started;
      o.flows_completed = r.flows_completed;
      slot.counts.events = net.executed_events();
      slot.counts.control_frames = net.counters().control_frames_sent;
      slot.counts.flows_started = r.flows_started;
      slot.counts.deadlock_detections =
          static_cast<std::uint64_t>(r.deadlock_detections);
      slot.counts.wire_lost = net.counters().wire_lost_packets;
      slot.counts.reverdicts = static_cast<std::uint64_t>(r.analyze_reverdicts);
      if (traced) {
        slot.counts.trace.add_buffer(s.fabric->tracer()->buffer());
        slot.counts.bdg_edges = bdg_edge_count(s.topo, s.routing);
      }
      o.ran = true;
    };

    case_no = 0;
    for (const FreeCase& c : scan.free) {
      ++case_no;
      for (const char* m : paper_mechs) {
        const sim::TimePs dur = p.duration;
        const std::uint64_t wseed = c.topo_seed ^ (seed * 131);
        add_trial("closed/" + std::to_string(case_no) + "/" + m,
                  perfbench::TrialKind::kClosedLoop, &mechanism(m), false,
                  [c, dur, wseed, closed_loop, traced, split](
                      runner::ScenarioConfig& cfg, TrialSlot& slot) {
                    Span setup("bench.setup");
                    runner::FatTreeScenario s = set_up_fattree(
                        cfg, 4, c.failed, split, &slot.fabric_rss_mb);
                    slot.setup_s = setup.stop();
                    closed_loop(s, dur, wseed, slot, traced);
                  });
      }
    }

    for (const char* m : paper_mechs) {
      const sim::TimePs dur = p.duration;
      const topo::LinkIndex li = scan.flap_link;
      const std::uint64_t wseed = seed * 7 + 5;
      add_trial(std::string("flap/") + m, perfbench::TrialKind::kFlap,
                &mechanism(m), false,
                [li, dur, wseed, closed_loop, traced, split](
                    runner::ScenarioConfig& cfg, TrialSlot& slot) {
                  // Soundness oracle armed across the flap's reroutes.
                  cfg.witness_check = true;
                  Span setup("bench.setup");
                  runner::FatTreeScenario s =
                      set_up_fattree(cfg, 4, {}, split, &slot.fabric_rss_mb);
                  slot.setup_s = setup.stop();
                  const topo::TopoLink link = s.topo.link(li);
                  fault::LinkScheduler flaps(
                      s.fabric->net(), [&s, li](const fault::LinkEvent& ev) {
                        if (ev.up)
                          s.topo.restore_link(li);
                        else
                          s.topo.fail_link(li);
                        s.routing = timed("topo.compute_shortest_paths", [&] {
                          return topo::compute_shortest_paths(s.topo);
                        });
                        timed("runner.install_routing", [&] {
                          s.fabric->install_routing(s.topo, s.routing);
                        });
                      });
                  flaps.schedule_flap(link.a, link.b, dur / 4, dur * 3 / 4);
                  slot.outcome.witness_armed = true;
                  closed_loop(s, dur, wseed, slot, traced);
                  slot.counts.flaps = static_cast<std::uint64_t>(flaps.downs());
                });
    }

    exp::PoolOptions opts;
    opts.jobs = kWorkers;
    const exp::CampaignResult result = exp::run_campaign(camp, opts);
    const double pool_s = pool.stop();
    for (std::size_t i = 0; i < n_trials; ++i) {
      const exp::TrialRecord& rec = result.trials[i];
      TrialSlot& slot = (*slots)[i];
      if (!rec.ok()) {
        slot.outcome.ran = false;
        slot.outcome.error = rec.timed_out ? "timed out: " + rec.error
                                           : rec.error;
      }
    }
    double trial_setup = 0;
    std::vector<double> heap;
    std::size_t ran = 0;
    for (const TrialSlot& s : *slots) {
      trial_setup += s.setup_s;
      heap.push_back(s.heap_mb);
      if (s.outcome.ran) ++ran;
    }
    const double wall = round.stop();
    // Set-up: the scan plus every trial's fabric set-up (summed over the
    // workers), i.e. all work before each simulation's first event. Peak
    // heap: the median trial's (the largest depends on whether a seed's
    // prone fabric fills the 4,096-cycle enumeration).
    *times = {wall, scan_s + trial_setup, static_cast<double>(ran), pool_s};
    *heap_mb = median(heap);
    return scan;
  };

  std::vector<RoundTimes> rounds;
  std::vector<std::vector<TrialSlot>> round_slots;  // the counting round first
  Scan scan;  // the counting round's
  double heap_mb = 0;
  const double allocs = run_rounds(a.seconds, [&](int i) {
    std::vector<TrialSlot> slots;
    RoundTimes t;
    double heap = 0;
    Scan sc = one_round(round_seed(i), false, false, &slots, &t, &heap);
    if (i >= 0) {
      rounds.push_back(t);
    } else {
      heap_mb = heap;
      scan = std::move(sc);
    }
    round_slots.push_back(std::move(slots));
  });

  Outcome o;
  add_end_to_end(o, rounds, false, heap_mb, allocs);
  auto& log = perfbench::SpanLog::get();
  std::vector<TrialSlot> split_slots, traced_slots;
  if (a.trace || a.selftest) {
    // A split round (untraced, each trial's set-up call by call) for the
    // per-layer set-up figures, then the traced round for the counts.
    const int split_round = static_cast<int>(rounds.size()) + 1;
    RoundTimes unused;
    double unused_heap = 0;
    log.set_round(split_round);
    one_round(a.seed, false, true, &split_slots, &unused, &unused_heap);
    log.set_round(split_round + 1);
    RoundTimes traced;
    one_round(a.seed, true, false, &traced_slots, &traced, &unused_heap);

    const auto recs = log.records();
    double max_rss = 0;
    for (const TrialSlot& s : split_slots)
      max_rss = std::max(max_rss, s.fabric_rss_mb);
    std::vector<double> run, ns_per_event, efficiency, wall, trial_s;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      double run_s = 0, busy = 0;
      std::uint64_t events = 0;
      for (const TrialSlot& s : round_slots[i + 1]) {
        run_s += s.run_s;
        busy += s.trial_s;
        events += s.counts.events;
        trial_s.push_back(s.trial_s);
      }
      run.push_back(run_s);
      ns_per_event.push_back(run_s * 1e9 / static_cast<double>(events));
      efficiency.push_back(busy / (kWorkers * rounds[i].ops_time_s));
      wall.push_back(rounds[i].wall_s);
    }
    SimCounts traced_counts;
    for (const TrialSlot& s : traced_slots) traced_counts.add(s.counts);
    o.per_layer
        .num("topo.spf_s",
             span_seconds(recs, split_round, {"topo.compute_shortest_paths"}))
        .num("topo.cbd_screen_s",
             span_seconds(recs, split_round,
                          {"topo.cbd_prone", "analyze.screen_cbd"}))
        .num("runner.fabric_s",
             span_seconds(recs, split_round,
                          {"runner.Fabric", "runner.install_routing"}))
        .num("runner.fabric_rss_mb", max_rss)
        .num("sim.run_s", median(run))
        .num("sim.ns_per_event", median(ns_per_event))
        .num("exp.trial_s_p50", quantile(trial_s, 0.5))
        .num("exp.trial_s_p90", quantile(trial_s, 0.9))
        .num("exp.pool_efficiency", median(efficiency))
        .num("trace.overhead", traced.wall_s / median(wall));
    add_sim_layers(o.per_layer, traced_counts);
    perfbench::CheckResult ring{"trace_ring_complete", true, ""};
    if (traced_counts.trace.dropped != 0) {
      ring.ok = false;
      ring.detail = std::to_string(traced_counts.trace.dropped) +
                    " trace records overwritten";
    }
    o.checks.push_back(ring);
  }

  // Check every round, the split and traced ones included.
  std::vector<std::vector<TrialSlot>*> all;
  for (auto& s : round_slots) all.push_back(&s);
  if (!split_slots.empty()) all.push_back(&split_slots);
  if (!traced_slots.empty()) all.push_back(&traced_slots);
  perfbench::CampaignData first;
  std::uint64_t trials = 0, failed = 0, timed_out = 0, started = 0,
                completed = 0, events = 0;
  for (std::size_t r = 0; r < all.size(); ++r) {
    perfbench::CampaignData d;
    for (const TrialSlot& s : *all[r]) {
      d.trials.push_back(s.outcome);
      ++trials;
      if (!s.outcome.ran) ++failed;
      if (s.outcome.error.rfind("timed out", 0) == 0) ++timed_out;
      started += s.outcome.flows_started;
      completed += s.outcome.flows_completed;
      if (r == 0) events += s.counts.events;
    }
    if (r == 0) first = d;
    for (const perfbench::CheckResult& c : perfbench::check_campaign(d)) {
      auto it = std::find_if(o.checks.begin(), o.checks.end(),
                             [&](const perfbench::CheckResult& x) {
                               return x.name == c.name;
                             });
      if (it == o.checks.end())
        o.checks.push_back(c);
      else if (it->ok && !c.ok)
        *it = c;
    }
  }
  if (a.selftest)
    o.selftest = run_selftest(first, &perfbench::check_campaign,
                              perfbench::campaign_corruptions());
  std::uint64_t stress = 0, deadlocks = 0, witness = 0, unverifiable = 0;
  for (const TrialSlot& s : round_slots[0]) {
    if (s.outcome.kind == perfbench::TrialKind::kStress) ++stress;
    if (s.outcome.deadlocked) ++deadlocks;
    witness += static_cast<std::uint64_t>(s.outcome.witness_checks);
    if (s.outcome.witness_armed && s.outcome.deadlocked &&
        s.outcome.witness_checks == 0)
      ++unverifiable;
  }
  o.attempted = trials;
  o.failed = failed;
  o.detail.count("trials", trials)
      .count("trials_failed", failed)
      .count("trials_timed_out", timed_out)
      .count("trials_per_round", round_slots[0].size())
      .count("stress_trials_per_round", stress)
      .count("deadlocked_trials_per_round", deadlocks)
      .count("witness_checks_per_round", witness)
      .count("witnesses_beyond_enumeration_cap_per_round", unverifiable)
      .count("flows_started", started)
      .count("flows_completed", completed)
      .count("sim_events_per_round", events)
      .count("scan_sampled", static_cast<std::uint64_t>(scan.sampled))
      .count("scan_prone", static_cast<std::uint64_t>(scan.prone_seen))
      .count("scan_cbd_free", static_cast<std::uint64_t>(scan.free_seen));
  return o;
}

// --- k8_failure_sweep ----------------------------------------------------------------------

/// A fat-tree with its nodes and links renumbered by `rng` (names, layers
/// and pods kept): the same fabric as the program sees it under another
/// numbering, so every seed gives the sweep a different input order.
topo::Topology relabeled_fattree(int k, sim::Rng& rng) {
  topo::Topology base;
  topo::build_fattree(base, k);
  std::vector<topo::NodeIndex> order(base.node_count());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<topo::NodeIndex> new_index(base.node_count());
  topo::Topology t;
  for (const topo::NodeIndex old : order) {
    const topo::TopoNode& n = base.node(old);
    new_index[static_cast<std::size_t>(old)] =
        n.is_host ? t.add_host(n.name, n.pod)
                  : t.add_switch(n.name, n.layer, n.pod);
  }
  std::vector<topo::LinkIndex> links(base.link_count());
  std::iota(links.begin(), links.end(), 0);
  rng.shuffle(links);
  for (const topo::LinkIndex l : links) {
    topo::NodeIndex x = new_index[static_cast<std::size_t>(base.link(l).a)];
    topo::NodeIndex y = new_index[static_cast<std::size_t>(base.link(l).b)];
    if (rng.chance(0.5)) std::swap(x, y);
    t.add_link(x, y);
  }
  return t;
}

struct SweepInput {
  std::string name;
  int k = 0;
  int max_failures = 0;
  topo::Topology topo;
  topo::RoutingTable routing;
};

analyze::Input analyze_input(const SweepInput& s,
                             const topo::Topology* topo = nullptr,
                             const topo::RoutingTable* routing = nullptr) {
  analyze::Input in;
  in.topo = topo != nullptr ? topo : &s.topo;
  in.routing = routing != nullptr ? routing : &s.routing;
  in.cfg.fc = runner::FcSetup::derive(runner::FcKind::kPfc,
                                      in.cfg.switch_buffer, in.cfg.link.rate,
                                      in.cfg.tau());
  in.scenario = s.name;
  return in;
}

Outcome sweep(const Args& a) {
  // Every single switch-link failure of a pristine k=8 fat-tree, plus
  // every failure of up to 2 switch links of a k=4 one (which reaches
  // Johnson's enumeration and its truncation; the k=8 sweep stays
  // cycle-free).
  struct PartSpec {
    const char* name;
    int k;
    int max_failures;
  };
  const std::vector<PartSpec> specs =
      a.smoke ? std::vector<PartSpec>{{"k4-1", 4, 1}, {"k4-2", 4, 2}}
              : std::vector<PartSpec>{{"k8-1", 8, 1}, {"k4-2", 4, 2}};
  constexpr int kSetupRepeats = 9;

  auto set_up = [&](std::vector<SweepInput>* inputs) {
    inputs->clear();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      sim::Rng rng(a.seed * 1'000'033 + i);
      SweepInput in;
      in.name = specs[i].name;
      in.k = specs[i].k;
      in.max_failures = specs[i].max_failures;
      in.topo = timed("topo.build_fattree",
                      [&] { return relabeled_fattree(specs[i].k, rng); });
      in.routing = timed("topo.compute_shortest_paths", [&] {
        return topo::compute_shortest_paths(in.topo);
      });
      inputs->push_back(std::move(in));
    }
  };

  std::vector<RoundTimes> rounds;
  std::vector<SweepInput> inputs;
  std::vector<analyze::Report> first_reports;
  std::vector<std::vector<int>> repeat_verdicts;
  std::vector<double> sweep_s;
  double heap_mb = 0;
  const double allocs = run_rounds(a.seconds, [&](int i) {
    Span round("bench.round");
    const perfbench::HeapPeak heap;
    // Set-up is milliseconds long; repeat it and keep the median.
    std::vector<double> setups;
    for (int r = 0; r < kSetupRepeats; ++r) {
      Span setup("bench.setup");
      set_up(&inputs);
      setups.push_back(setup.stop());
    }
    std::vector<analyze::Report> reports;
    double t = 0;
    std::size_t combos = 0;
    for (const SweepInput& in : inputs) {
      Span s("analyze.sweep_failures");
      reports.push_back(
          analyze::sweep_failures(analyze_input(in), in.max_failures));
      t += s.stop();
      combos += reports.back().failure_sweep->combos;
    }
    const double wall = round.stop();
    if (i < 0) {
      heap_mb = heap.mb();
      first_reports = std::move(reports);
      return;
    }
    // Wall time counts one set-up, not the repeats.
    rounds.push_back({wall - std::accumulate(setups.begin(), setups.end(), 0.0) +
                          median(setups),
                      median(setups), static_cast<double>(combos), t});
    sweep_s.push_back(t);
    std::vector<int> v;
    for (const analyze::Report& rep : reports)
      for (const analyze::FailureCombo& c : rep.failure_sweep->results)
        v.push_back(static_cast<int>(c.verdict));
    repeat_verdicts.push_back(std::move(v));
  });

  // Check pass (outside the timed rounds): the independent reference for
  // every combo of the counting round, and from scratch in the traced run.
  auto& log = perfbench::SpanLog::get();
  const int check_round = static_cast<int>(rounds.size()) + 1;
  log.set_round(check_round);
  const bool scratch = a.trace || a.selftest;
  perfbench::SweepData data;
  data.repeat_verdicts = repeat_verdicts;
  std::uint64_t cycles = 0, truncated = 0, bdg_edges = 0, flipped = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const SweepInput& in = inputs[i];
    const analyze::Report& rep = first_reports[i];
    const analyze::FailureSweep& fs = *rep.failure_sweep;
    perfbench::SweepPart part;
    part.name = in.name;
    for (const topo::LinkIndex l : in.topo.switch_links())
      if (in.topo.link(l).up) ++part.candidate_links;
    part.max_failures = in.max_failures;
    part.max_cycles = analyze_input(in).max_cycles;
    part.baseline_verdict = static_cast<int>(fs.baseline);
    part.baseline_reference_prone = topo::cbd_prone(in.topo, in.routing);
    part.flipped = fs.flipped;
    flipped += fs.flipped;
    topo::Topology failed = in.topo;
    for (const analyze::FailureCombo& c : fs.results) {
      perfbench::ComboOutcome co;
      co.links = c.links;
      co.verdict = static_cast<int>(c.verdict);
      co.cycles = c.cycle_count;
      co.truncated = c.truncated;
      co.flips = c.flips;
      cycles += c.cycle_count;
      if (c.truncated) ++truncated;
      for (const topo::LinkIndex l : c.links) failed.fail_link(l);
      const topo::RoutingTable routing =
          timed("topo.compute_shortest_paths",
                [&] { return topo::compute_shortest_paths(failed); });
      co.reference_prone = timed(
          "topo.cbd_prone", [&] { return topo::cbd_prone(failed, routing); });
      if (scratch) {
        const analyze::Report full = timed("analyze.analyze", [&] {
          return analyze::analyze(analyze_input(in, &failed, &routing));
        });
        co.has_scratch = true;
        co.scratch_verdict = static_cast<int>(full.verdict());
        co.scratch_cycles = full.cycles.size();
        bdg_edges += full.bdg_edges;
      }
      for (const topo::LinkIndex l : c.links) failed.restore_link(l);
      part.combos.push_back(std::move(co));
    }
    data.parts.push_back(std::move(part));
  }

  Outcome o;
  add_end_to_end(o, rounds, true, heap_mb, allocs);
  if (scratch) {
    // SPF and the CBD screen are timed in the check pass above (the
    // reference for every combo), not inside sweep_failures. The program's
    // tracer records simulation events only and the driver's spans are on
    // in every round, so a traced rerun would measure nothing:
    // trace.overhead reads 0 (not applicable).
    const auto recs = log.records();
    o.per_layer.num("topo.spf_s",
                    span_seconds(recs, check_round, {"topo.compute_shortest_paths"}))
        .num("topo.cbd_screen_s",
             span_seconds(recs, check_round, {"topo.cbd_prone"}))
        .num("analyze.sweep_s", median(sweep_s))
        .num("analyze.scratch_s",
             span_seconds(recs, check_round, {"analyze.analyze"}))
        .count("analyze.cycles", cycles)
        .count("analyze.truncated_combos", truncated)
        .num("trace.overhead", 0)
        .count("topo.bdg_edges", bdg_edges);
  }
  o.checks = perfbench::check_sweep(data);
  if (a.selftest)
    o.selftest = run_selftest(data, &perfbench::check_sweep,
                              perfbench::sweep_corruptions());
  std::uint64_t per_round = 0;
  for (const auto& p : data.parts) per_round += p.combos.size();
  o.attempted = per_round * (rounds.size() + 1);  // the counting round too
  o.failed = 0;  // a combo cannot fail alone: a throwing sweep ends the run
  o.detail.count("combos_per_round", per_round)
      .count("combos", o.attempted)
      .count("cycles_per_round", cycles)
      .count("truncated_combos_per_round", truncated)
      .count("flipped_combos_per_round", flipped);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  Outcome o;
  try {
    if (a.workload == "k16_timeline")
      o = timeline(a);
    else if (a.workload == "k4_campaign")
      o = campaign(a);
    else if (a.workload == "k8_failure_sweep")
      o = sweep(a);
    else
      usage(("unknown workload " + a.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gfc-perfbench: %s\n", e.what());
    return 1;
  }
  std::string spans_path;
  Json self_time;
  if (a.trace) {
    o.per_layer.num("bench.round_s", o.round_s)
        .num("bench.ops_per_s", o.ops_per_s);
    for (const auto& [layer, secs] :
         layer_self_seconds(perfbench::SpanLog::get().records(),
                            o.timed_rounds))
      self_time.num(layer, secs);
    std::error_code ec;
    std::filesystem::create_directories(a.out_dir, ec);
    spans_path = a.out_dir + "/" + a.workload + "-seed" +
                 std::to_string(a.seed) + ".spans.json";
    if (!perfbench::SpanLog::get().write_chrome_json(spans_path)) {
      std::fprintf(stderr, "gfc-perfbench: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  Json out;
  out.str("workload", a.workload)
      .count("seed", a.seed)
      .boolean("trace", a.trace)
      .boolean("smoke", a.smoke)
      .boolean("correct", perfbench::all_ok(o.checks))
      .count("attempted", o.attempted)
      .count("failed", o.failed)
      .obj("end_to_end", o.end_to_end)
      .obj("per_layer", o.per_layer)
      .obj("detail", o.detail)
      .raw("checks", checks_json(o.checks))
      .str("spans", spans_path)
      .obj("self_s_per_round", self_time);
  if (a.selftest) out.raw("selftest", o.selftest);
  std::printf("%s\n", out.text().c_str());
  return 0;
}
