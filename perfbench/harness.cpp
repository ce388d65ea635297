// harness.cpp — the C++ half of the MANATEE benchmark; perfbench/run.py
// drives it. One invocation does one thing and prints one `RESULT {json}`
// line on stdout:
//
//   perfbench_harness job --workload W --seed S --tmp DIR
//                         [--native-ns N --variant V] [--trace-out FILE]
//     One measured simulated job of workload W: set-up, run and teardown,
//     with wall times, this process's VmHWM, the virtual-time results, a
//     digest of every rank's result fingerprint and the layer counters the
//     job leaves behind.
//   perfbench_harness twin --workload W --seed S --tmp DIR
//     W's untimed companions: the uninterrupted reference whose
//     fingerprints every job must reproduce (the failure_storm oracle), the
//     other-protocol makespan behind cc_overhead_pct, and, for vasp-cc and
//     wide-world, one checkpoint + restart for the checkpoint metrics.
//   perfbench_harness layers --tmp DIR [--trace-out FILE]
//     The per-layer rows, each timed through the layer's public functions.
//
// Every knob an environment variable could otherwise supply — scheduler
// backend and workers, stack budget, topology, collective tuning,
// switch-drain mode — is set explicitly here, and each job reports the
// configuration the runtime actually ended up with.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/generation.hpp"
#include "ckpt/image.hpp"
#include "ckpt/registry.hpp"
#include "ckpt/writer.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/mutex.hpp"
#include "sched/scheduler.hpp"
#include "sched/waiter.hpp"
#include "simnet/fabric.hpp"
#include "simnet/mailbox.hpp"
#include "simnet/topology.hpp"
#include "split/engine.hpp"
#include "split/lifecycle.hpp"
#include "umpi/runtime.hpp"
#include "workloads/vasp_proxy.hpp"

// ---- allocation counting ----------------------------------------------------
// The global allocator gets a counting front end so simnet.eager_allocs_per_op
// can show that a posted-receive match allocates nothing. The count is
// thread-local: worker threads never share a cache line through it.
namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t bytes) {
  ++t_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace manatee::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using simnet::SimTime;
using split::Api;
using split::Engine;
using split::EngineConfig;
using split::Protocol;
using split::RunReport;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kStackBudgetBytes = std::size_t{40} << 20;
/// Crashes every vasp-storm job must survive (STORM_FAILURES in run.py).
constexpr std::uint64_t kStormFailures = 5;

double seconds_since(Clock::time_point start, Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double>(end - start).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

double mean(const std::vector<double>& xs) {
  double sum = 0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// Median wall time of `reps` calls of `fn`, in seconds.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    xs.push_back(seconds_since(start));
  }
  return median(std::move(xs));
}

/// Peak resident set of this process (VmHWM), in KiB.
std::uint64_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

// ---- command line and output ---------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    if ((argc - 2) % 2 != 0) throw UsageError("options come as --key value pairs");
    for (int i = 2; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.size() < 3 || key.compare(0, 2, "--") != 0) {
        throw UsageError("expected --key, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }

  [[nodiscard]] bool has(const std::string& key) const { return values_.contains(key); }

  [[nodiscard]] std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw UsageError("missing --" + key);
    return it->second;
  }

  [[nodiscard]] std::uint64_t get_u64(const std::string& key) const {
    const std::string value = get(key);
    char* end = nullptr;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0') {
      throw UsageError("--" + key + " needs a whole number, got '" + value + "'");
    }
    return n;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// One flat JSON object, printed as the `RESULT` line run.py parses.
class Result {
 public:
  void number(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    field(key, buf);
  }
  void count(const std::string& key, std::uint64_t value) {
    field(key, std::to_string(value));
  }
  void flag(const std::string& key, bool value) { field(key, value ? "true" : "false"); }
  void text(const std::string& key, const std::string& value) { field(key, quote(value)); }

  void print() const {
    std::printf("RESULT {%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else {
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
      }
    }
    return out + "\"";
  }
  void field(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + rendered;
  }

  std::string body_;
};

// ---- tracing ---------------------------------------------------------------------

/// Spans kept in memory around every call the benchmark makes into a layer,
/// written out as Chrome trace-event JSON (Perfetto, chrome://tracing) when
/// the process is done. A disabled tracer records nothing.
class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id) : enabled_(enabled), run_id_(run_id) {}

  int open(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back({name, Clock::now(), {}, parent()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }

  /// A span the caller timed itself (e.g. between two callbacks), parented
  /// to the innermost open span.
  void add(const std::string& name, Clock::time_point start, Clock::time_point end) {
    if (enabled_) spans_.push_back({name, start, end, parent()});
  }

  void write(const std::string& path) const {
    if (!enabled_) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw RuntimeFault("cannot write trace file " + path);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d, \"run\": %" PRIu64 "}}%s\n",
                   s.name.c_str(), seconds_since(origin_, s.start) * 1e6,
                   seconds_since(s.start, s.end) * 1e6, i, s.parent, run_id_,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  struct Record {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };

  [[nodiscard]] int parent() const { return stack_.empty() ? -1 : stack_.back(); }

  bool enabled_;
  std::uint64_t run_id_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer& tracer, const std::string& name) : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// A fresh directory under the benchmark's temp root, removed on scope exit.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& tag)
      : path_(std::filesystem::path(root) / (tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string path() const { return path_.string(); }
  [[nodiscard]] std::string sub(const std::string& name) const {
    const auto dir = path_ / name;
    std::filesystem::create_directories(dir);
    return dir.string();
  }

 private:
  std::filesystem::path path_;
};

// ---- workloads --------------------------------------------------------------------

/// Placement and scheduling of one workload's simulated job. Every workload
/// pins the events backend and an explicit worker count (never above the
/// 4 CPUs the benchmark is sized for).
struct Shape {
  int world;
  int ranks_per_node;
  const char* topology;
  int workers;
};
// Multi-node fat-tree: collective selection chooses between hierarchical
// and flat algorithms.
constexpr Shape kVaspCc{256, 16, "fattree:rpn=16,group=4", 2};
// BENCH_8's 64-rank shape. One worker keeps the checkpoint cut position as
// repeatable as it can be, since the cut depends on the wall-clock schedule
// (DESIGN.md §8).
constexpr Shape kVaspStorm{64, 8, "flat:rpn=8", 1};
// bench_world_scaling's shape. Stack vacating and process_madvise batching
// only run with one worker.
constexpr Shape kWideWorld{32768, 64, "flat:rpn=64", 1};
// wide-world's CC and checkpoint companion: the same body and placement at
// 1024 ranks. CC's cost grows faster than quadratically with the world
// (0.19 s at 1024 ranks, 29 s at 8192), so a CC run at 32768 ranks does
// not finish within a benchmark run.
constexpr Shape kWideWorldCc{1024, 64, "flat:rpn=64", 1};

const Shape& shape_of(const std::string& workload) {
  if (workload == "vasp-cc") return kVaspCc;
  if (workload == "vasp-storm") return kVaspStorm;
  if (workload == "wide-world") return kWideWorld;
  throw UsageError("unknown workload '" + workload + "'");
}

EngineConfig engine_config(const Shape& shape, Protocol protocol) {
  EngineConfig config;
  config.runtime.world_size = shape.world;
  config.runtime.ranks_per_node = shape.ranks_per_node;
  config.runtime.topo = simnet::parse_topo_spec(shape.topology);
  config.runtime.coll = umpi::coll::CollTuning{};  // heuristic selection, nothing forced
  config.runtime.sched.backend = sched::Backend::kEvents;
  config.runtime.sched.workers = shape.workers;
  config.runtime.sched.stack_budget_bytes = kStackBudgetBytes;
  config.protocol = protocol;
  config.switch_drain = ckpt::SwitchDrainMode::kCutThrough;
  return config;
}

/// `base` plus a seed-derived jitter below 1%.
SimTime jittered(std::uint64_t seed, SimTime base) {
  return base + static_cast<SimTime>(mix64(seed) % static_cast<std::uint64_t>(base / 100));
}

workloads::VaspProxy vasp_proxy(const std::string& workload, std::uint64_t seed) {
  workloads::VaspProxy vasp;
  vasp.scf_iterations = 1;  // 12 FFT transpose pairs: a job of seconds
  if (workload == "vasp-storm") {
    // BENCH_8's heavy registered state: a 256 KiB psi block per rank plus
    // 3x cold pseudopotential tables (what a delta checkpoint dedupes).
    vasp.wavefunction_elems = 1 << 15;
    vasp.pseudopotential_elems = 3 << 15;
  }
  // Seed-derived inputs: the compute phase and the psi block each grow by
  // under 2%, so every seed is a distinct job of about the same size.
  vasp.compute_per_fft_ns = jittered(seed, vasp.compute_per_fft_ns);
  vasp.wavefunction_elems += static_cast<int>(
      mix64(seed ^ 0x9e37) % static_cast<std::uint64_t>(vasp.wavefunction_elems / 64));
  return vasp;
}

/// bench_world_scaling's rank body (iterated allreduce + barrier) with a
/// seed-derived input offset and compute phase. Every rank's sum is known
/// in closed form, so the body checks itself.
struct WideWorld {
  static constexpr int kIterations = 2;

  explicit WideWorld(std::uint64_t seed)
      : offset(static_cast<std::int64_t>(mix64(seed) % 1000)),
        compute_ns(jittered(seed, 10'000)) {}

  [[nodiscard]] std::int64_t expected_sum(int world) const {
    const std::int64_t n = world;
    return n * (n + 1) / 2 + n * offset;
  }

  [[nodiscard]] static std::uint64_t fingerprint(std::int64_t sum, int rank) {
    Fingerprint fp;
    fp.add_value(sum);
    fp.add_value(rank);
    return fp.value();
  }

  std::uint64_t operator()(Api& api) const {
    std::int64_t mine = api.rank() + 1 + offset;
    std::int64_t sum = 0;
    api.register_value("mine", mine);
    api.register_value("sum", sum);
    for (int i = 0; i < kIterations; ++i) {
      api.compute(compute_ns);
      api.allreduce(split::kWorldComm, std::as_bytes(std::span(&mine, 1)),
                    std::as_writable_bytes(std::span(&sum, 1)),
                    umpi::Datatype::kInt64, umpi::ReduceOp::kSum);
      api.barrier(split::kWorldComm);
    }
    if (sum != expected_sum(api.size())) {
      throw RuntimeFault("wide-world allreduce mismatch at rank " +
                         std::to_string(api.rank()));
    }
    return fingerprint(sum, api.rank());
  }

  std::int64_t offset;
  SimTime compute_ns;
};

/// The rank body of `workload`; each rank's result fingerprint lands in
/// `fingerprints`.
split::WrappedApp make_app(const std::string& workload, std::uint64_t seed,
                           std::vector<std::uint64_t>& fingerprints) {
  if (workload == "wide-world") {
    return [app = WideWorld(seed), &fingerprints](Api& api) {
      fingerprints[static_cast<std::size_t>(api.rank())] = app(api);
    };
  }
  return [proxy = vasp_proxy(workload, seed), &fingerprints](Api& api) {
    workloads::VaspProxy instance = proxy;
    instance(api);
    fingerprints[static_cast<std::size_t>(api.rank())] = instance.outcome.fingerprint;
  };
}

std::string digest(const std::vector<std::uint64_t>& fingerprints) {
  std::uint64_t h = 0;
  for (const std::uint64_t fp : fingerprints) h = hash_combine(h, fp);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// vasp-storm's Poisson failure stream: kStormFailures arrivals with mean
/// gap native/(2·failures). (seed, variant) picks, in a fixed order, the
/// first stream whose arrivals all land before 70% of the native makespan,
/// so every job crashes exactly kStormFailures times. Each job of a run
/// gets its own variant, so a run's median spans several failure streams
/// instead of repeating one.
split::FailureSchedule storm_schedule(std::uint64_t seed, std::uint64_t variant,
                                      SimTime native_ns) {
  split::FailureSchedule schedule;
  schedule.poisson_mean_ns =
      static_cast<double>(native_ns) / (2.0 * static_cast<double>(kStormFailures));
  schedule.poisson_min_spacing_ns = native_ns / 16;
  schedule.poisson_max_arrivals = kStormFailures;
  for (std::uint64_t k = 0;; ++k) {
    schedule.poisson_seed = mix64(hash_combine(hash_combine(seed, variant), k));
    const auto arrivals = schedule.poisson_arrivals(kStormFailures);
    if (arrivals.size() == kStormFailures && arrivals.back() <= native_ns * 7 / 10) {
      return schedule;
    }
  }
}

std::string env_or_unset(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "unset" : value;
}

/// The configuration a job actually ran with (after any environment preset
/// the library applies), plus the pinned variables as the process saw them.
std::string describe_config(Engine& engine) {
  const umpi::RuntimeConfig& rc = engine.runtime().config();
  std::string forced;
  for (const std::string& name : rc.coll.forced) {
    if (!name.empty()) forced += (forced.empty() ? "" : ",") + name;
  }
  std::string out =
      std::string("sched=") + sched::backend_name(rc.sched.backend) +
      " workers=" + std::to_string(rc.sched.workers) +
      " stack_budget_mib=" + std::to_string(rc.sched.stack_budget_bytes >> 20) +
      " topology=[" + engine.runtime().topology().describe() + "]" +
      " coll_forced=" + (forced.empty() ? "none" : forced) + " switch_drain=" +
      (engine.config().switch_drain == ckpt::SwitchDrainMode::kQuiesce ? "quiesce"
                                                                       : "cut-through");
  for (const char* var : {"MANATEE_SCHED", "MANATEE_COLL", "MANATEE_SWITCH_DRAIN",
                          "MANATEE_STACK_BUDGET_MB"}) {
    out += std::string(" ") + var + "=" + env_or_unset(var);
  }
  return out;
}

// ---- one measured job -------------------------------------------------------------

/// What one job leaves behind, summed over lifecycle segments.
struct JobStats {
  double setup_s = 0;
  double run_s = 0;
  SimTime makespan = 0;
  std::uint64_t wrapper_calls = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t stackless_parks = 0;
  std::uint64_t fiber_fallbacks = 0;
  std::uint64_t stack_vacations = 0;
  std::uint64_t peak_committed = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t collective_msgs = 0;
  std::uint64_t p2p_msgs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t protocol_msgs = 0;
  std::uint64_t forced_targets = 0;
  std::uint64_t written_bytes = 0;
  std::uint64_t logical_bytes = 0;
  std::vector<double> stalls_ns;
  std::vector<double> restarts_ns;
  std::vector<double> written_per_gen;
  std::vector<double> run_segment_s;
  std::vector<double> restart_segment_s;
  std::uint64_t crashes = 0;
  bool completed = true;
  std::string config;

  void add_report(const RunReport& r, bool restarted) {
    makespan += r.makespan;
    wrapper_calls += r.wrapper_collective_calls + r.wrapper_p2p_calls;
    dispatches += r.sched.dispatches;
    stackless_parks += r.sched.stackless_parks;
    fiber_fallbacks += r.sched.fiber_fallbacks;
    stack_vacations += r.sched.stack_vacations;
    peak_committed = std::max(peak_committed, r.sched.peak_committed);
    collective_msgs += r.collective_messages;
    checkpoints += r.checkpoints;
    protocol_msgs += r.ckpt_protocol_messages;
    for (const SimTime d : r.ckpt_durations) stalls_ns.push_back(static_cast<double>(d));
    for (const auto b : r.ckpt_written_bytes) written_per_gen.push_back(static_cast<double>(b));
    if (restarted) restarts_ns.push_back(static_cast<double>(r.restart_duration));
  }

  void add_engine(Engine& engine) {
    simnet::Fabric& fabric = engine.runtime().fabric();
    const auto pool = fabric.pool().stats();
    pool_hits += pool.hits;
    pool_misses += pool.misses;
    p2p_msgs += fabric.counters(simnet::TrafficClass::kUserP2P).messages;
    for (const auto& [cycle, targets] : engine.coordinator().forced_by_cycle()) {
      forced_targets += targets.size();
    }
    if (ckpt::Writer* writer = engine.writer()) {
      for (const auto& [cycle, s] : writer->stats()) {
        written_bytes += s.written_bytes;
        logical_bytes += s.logical_bytes;
      }
    }
  }

  void print(Result& out) const {
    out.number("setup_s", setup_s);
    out.number("run_s", run_s);
    out.count("makespan_ns", static_cast<std::uint64_t>(makespan));
    out.count("wrapper_calls", wrapper_calls);
    out.count("dispatches", dispatches);
    out.count("stackless_parks", stackless_parks);
    out.count("fiber_fallbacks", fiber_fallbacks);
    out.count("stack_vacations", stack_vacations);
    out.count("peak_committed_bytes", peak_committed);
    out.count("pool_hits", pool_hits);
    out.count("pool_misses", pool_misses);
    out.count("collective_msgs", collective_msgs);
    out.count("p2p_msgs", p2p_msgs);
    out.count("checkpoints", checkpoints);
    out.count("protocol_msgs", protocol_msgs);
    out.count("forced_targets", forced_targets);
    out.count("written_bytes", written_bytes);
    out.count("logical_bytes", logical_bytes);
    out.number("stall_mean_ns", mean(stalls_ns));
    out.number("restart_mean_ns", mean(restarts_ns));
    out.number("written_mean_bytes", mean(written_per_gen));
    out.number("segment_s", mean(run_segment_s));
    out.number("restart_segment_s", mean(restart_segment_s));
    out.count("crashes", crashes);
    out.flag("completed", completed);
    out.text("config", config);
  }
};

/// vasp-cc and wide-world: one Engine, constructed, run and torn down.
/// setup_s covers the construction; run_s the run and the teardown.
void engine_job(const std::string& workload, std::uint64_t seed,
                const std::string& image_dir, Tracer& tracer, JobStats& stats,
                std::vector<std::uint64_t>& fingerprints) {
  EngineConfig config = engine_config(
      shape_of(workload), workload == "wide-world" ? Protocol::kNative : Protocol::kCC);
  // A checkpointable job has an image directory, so set-up includes the
  // checkpoint Writer exactly as it would for a user.
  if (config.protocol != Protocol::kNative) config.image_dir = image_dir;
  const split::WrappedApp app = make_app(workload, seed, fingerprints);

  std::optional<Engine> engine;
  const auto t0 = Clock::now();
  {
    Span span(tracer, "job.setup");
    engine.emplace(std::move(config));
  }
  const auto t1 = Clock::now();
  stats.setup_s = seconds_since(t0, t1);
  RunReport report;
  {
    Span span(tracer, "job.run");
    report = engine->run(app);
  }
  const auto t2 = Clock::now();
  stats.add_report(report, false);
  stats.add_engine(*engine);
  stats.config = describe_config(*engine);
  stats.run_segment_s.push_back(seconds_since(t1, t2));
  const auto t3 = Clock::now();
  {
    Span span(tracer, "job.teardown");
    engine.reset();
  }
  stats.run_s = seconds_since(t1, t2) + seconds_since(t3);
}

/// vasp-storm: CC under split::Lifecycle through a seeded Poisson failure
/// storm, generations retained, engine-default (sync, full) write-back.
void storm_job(std::uint64_t seed, std::uint64_t variant, SimTime native_ns,
               const std::string& image_dir, Tracer& tracer, JobStats& stats,
               std::vector<std::uint64_t>& fingerprints) {
  split::LifecycleConfig lifecycle;
  lifecycle.engine = engine_config(kVaspStorm, Protocol::kCC);
  lifecycle.engine.image_dir = image_dir;
  lifecycle.engine.retain_generations = 3;
  lifecycle.engine.failures = storm_schedule(seed, variant, native_ns);
  lifecycle.max_segments = kStormFailures + 4;
  const split::WrappedApp app = make_app("vasp-storm", seed, fingerprints);

  // Lifecycle builds its engines internally, so set-up is one construction
  // of the segment engine config, timed just before the lifecycle starts.
  {
    EngineConfig segment = lifecycle.engine;
    segment.stop_after_checkpoint = true;
    std::optional<Engine> probe;
    const auto t0 = Clock::now();
    {
      Span span(tracer, "job.setup");
      probe.emplace(std::move(segment));
    }
    stats.setup_s = seconds_since(t0);
  }

  Clock::time_point mark;
  lifecycle.on_segment = [&](Engine& engine, const RunReport& report, std::size_t index) {
    const auto now = Clock::now();
    tracer.add(index == 0 ? "lifecycle.run" : "lifecycle.restart", mark, now);
    (index == 0 ? stats.run_segment_s : stats.restart_segment_s)
        .push_back(seconds_since(mark, now));
    stats.add_report(report, index > 0);
    stats.add_engine(engine);
    if (index == 0) stats.config = describe_config(engine);
    mark = Clock::now();
  };
  split::Lifecycle driver(std::move(lifecycle));
  const auto t1 = Clock::now();
  split::LifecycleReport report;
  {
    Span span(tracer, "job.lifecycle");
    mark = Clock::now();
    report = driver.run(app);
  }
  stats.run_s = seconds_since(t1);
  stats.crashes = report.crashes;
  stats.completed = report.completed;
}

void run_job(const Args& args) {
  const std::string workload = args.get("workload");
  const std::uint64_t seed = args.get_u64("seed");
  const Shape& shape = shape_of(workload);
  Tracer tracer(args.has("trace-out"), seed);
  ScratchDir dir(args.get("tmp"), "job");
  JobStats stats;
  std::vector<std::uint64_t> fingerprints(static_cast<std::size_t>(shape.world), 0);
  {
    Span span(tracer, "job");
    if (workload == "vasp-storm") {
      storm_job(seed, args.get_u64("variant"), static_cast<SimTime>(args.get_u64("native-ns")),
                dir.path(), tracer, stats, fingerprints);
    } else {
      engine_job(workload, seed, dir.path(), tracer, stats, fingerprints);
    }
  }
  Result out;
  out.flag("ok", true);
  out.text("digest", digest(fingerprints));
  stats.print(out);
  out.count("hwm_kb", vm_hwm_kb());
  if (args.has("trace-out")) tracer.write(args.get("trace-out"));
  out.print();
}

// ---- the untimed twin -------------------------------------------------------------

struct ProbeResult {
  double stall_ns = 0;
  double restart_ns = 0;
  double written_bytes = 0;
  double logical_bytes = 0;
  std::string digest;
};

/// One CC checkpoint after `trigger_calls` wrapper collectives into a fresh
/// image generation (the run then continues to completion), then a restart
/// from that generation.
ProbeResult checkpoint_probe(const std::string& workload, const Shape& shape,
                             std::uint64_t seed, const std::string& image_dir,
                             std::uint64_t trigger_calls) {
  EngineConfig config = engine_config(shape, Protocol::kCC);
  config.image_dir = image_dir;
  config.retain_generations = 1;
  config.failures.at_collectives = {trigger_calls};
  std::vector<std::uint64_t> fingerprints(static_cast<std::size_t>(shape.world), 0);
  ProbeResult probe;
  {
    Engine engine(config);
    const RunReport report = engine.run(make_app(workload, seed, fingerprints));
    if (report.ckpt_durations.size() != 1) {
      throw RuntimeFault("checkpoint probe completed " +
                         std::to_string(report.ckpt_durations.size()) +
                         " checkpoints, expected 1");
    }
    probe.stall_ns = static_cast<double>(report.ckpt_durations.front());
    probe.written_bytes = static_cast<double>(report.ckpt_written_bytes.front());
    for (const auto& [cycle, s] : engine.writer()->stats()) {
      probe.logical_bytes += static_cast<double>(s.logical_bytes);
    }
  }
  config.failures = split::FailureSchedule{};
  {
    Engine engine(config);
    const RunReport report = engine.restart(make_app(workload, seed, fingerprints));
    probe.restart_ns = static_cast<double>(report.restart_duration);
  }
  probe.digest = digest(fingerprints);
  return probe;
}

void run_twin(const Args& args) {
  const std::string workload = args.get("workload");
  const std::uint64_t seed = args.get_u64("seed");
  const Shape& shape = shape_of(workload);
  ScratchDir dir(args.get("tmp"), "twin");
  Result out;
  if (workload == "wide-world") {
    // The measured job is itself the uninterrupted native run and checks
    // its sums in closed form; the reference digest is that closed form.
    const WideWorld app(seed);
    const auto closed_form = [&app](int world) {
      std::vector<std::uint64_t> fps(static_cast<std::size_t>(world));
      for (int r = 0; r < world; ++r) {
        fps[static_cast<std::size_t>(r)] = WideWorld::fingerprint(app.expected_sum(world), r);
      }
      return digest(fps);
    };
    out.text("ref_digest", closed_form(shape.world));
    out.text("companion_ref_digest", closed_form(kWideWorldCc.world));
  }
  // vasp-cc, vasp-storm: the uninterrupted native reference of the job.
  // wide-world: the native half of the CC companion pair.
  const Shape& native_shape = workload == "wide-world" ? kWideWorldCc : shape;
  std::vector<std::uint64_t> native_fps(static_cast<std::size_t>(native_shape.world), 0);
  std::uint64_t trigger_calls = 0;
  {
    Engine engine(engine_config(native_shape, Protocol::kNative));
    const RunReport report = engine.run(make_app(workload, seed, native_fps));
    out.count("native_ns", static_cast<std::uint64_t>(report.makespan));
    trigger_calls = report.wrapper_collective_calls /
                    static_cast<std::uint64_t>(native_shape.world) / 2;
  }
  if (workload == "wide-world") {
    std::vector<std::uint64_t> cc_fps(native_fps.size(), 0);
    Engine engine(engine_config(kWideWorldCc, Protocol::kCC));
    const RunReport report = engine.run(make_app(workload, seed, cc_fps));
    out.count("cc_ns", static_cast<std::uint64_t>(report.makespan));
    out.text("cc_digest", digest(cc_fps));
  } else {
    out.text("ref_digest", digest(native_fps));
  }
  if (workload != "vasp-storm") {
    const ProbeResult probe =
        checkpoint_probe(workload, native_shape, seed, dir.sub("probe"), trigger_calls);
    out.number("probe_stall_ns", probe.stall_ns);
    out.number("probe_restart_ns", probe.restart_ns);
    out.number("probe_written_bytes", probe.written_bytes);
    out.number("probe_logical_bytes", probe.logical_bytes);
    out.text("probe_digest", probe.digest);
  }
  out.flag("ok", true);
  out.print();
}

// ---- per-layer rows -----------------------------------------------------------------

sched::SchedConfig layer_sched(int workers) {
  sched::SchedConfig config;
  config.backend = sched::Backend::kEvents;
  config.workers = workers;
  config.stack_budget_bytes = kStackBudgetBytes;
  return config;
}

/// sched.yield_ns: two tasks calling sched::yield() on one events worker.
double yield_ns() {
  constexpr int kYields = 200'000;
  const double s = median_seconds(3, [] {
    sched::run_tasks(layer_sched(1), 2, [](int) {
      for (int i = 0; i < kYields; ++i) sched::yield();
    });
  });
  return s * 1e9 / (2.0 * kYields);
}

/// sched.park_notify_ns: two tasks handing a turn back and forth through
/// Waiter::park_until / notify; each handoff is one park→notify round trip.
double park_notify_ns() {
  constexpr int kRounds = 100'000;
  const double s = median_seconds(3, [] {
    common::Mutex mutex;
    sched::Waiter waiters[2];
    int turn = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    sched::run_tasks(layer_sched(1), 2, [&](int me) {
      for (int i = 0; i < kRounds; ++i) {
        common::MutexLock lock(mutex);
        while (turn != me) (void)waiters[me].park_until(mutex, deadline);
        turn = 1 - me;
        waiters[1 - me].notify();
      }
    });
  });
  return s * 1e9 / (2.0 * kRounds);
}

struct MatchRows {
  double eager_ns = 0;
  double unexpected_ns = 0;
  double eager_allocs_per_op = 0;
};

/// simnet rows: an 8-byte message matched on a bare two-rank Fabric, with
/// the receive posted first (eager, zero-copy) or the send first
/// (unexpected, staged in a pooled envelope).
MatchRows match_rows() {
  constexpr int kOps = 200'000;
  constexpr simnet::ContextId kContext = 7;
  constexpr int kTag = 3;
  simnet::Fabric fabric(simnet::Topology(2, 2), simnet::CostModel());
  simnet::MessageStore& store = fabric.store(1);
  simnet::VirtualClock clock;
  std::array<std::byte, 8> payload{};
  std::array<std::byte, 8> landing{};
  const simnet::MatchPattern pattern{kContext, 0, kTag};
  const auto send = [&] {
    fabric.send(0, 1, kContext, 0, kTag, payload, clock, simnet::TrafficClass::kUserP2P);
  };
  const auto post = [&](simnet::RecvResult& result) {
    store.post_recv(pattern, landing.data(), landing.size(), &result);
  };
  const auto eager = [&] {
    simnet::RecvResult result;
    post(result);
    send();
    if (!result.is_done()) throw RuntimeFault("eager match did not complete");
  };
  const auto unexpected = [&] {
    send();
    simnet::RecvResult result;
    post(result);
    if (!result.is_done()) throw RuntimeFault("unexpected match did not complete");
  };
  for (int i = 0; i < 1000; ++i) {  // warm the bins and the pool
    eager();
    unexpected();
  }
  MatchRows rows;
  rows.eager_ns = median_seconds(3, [&] {
    for (int i = 0; i < kOps; ++i) eager();
  }) * 1e9 / kOps;
  rows.unexpected_ns = median_seconds(3, [&] {
    for (int i = 0; i < kOps; ++i) unexpected();
  }) * 1e9 / kOps;
  const std::uint64_t allocations = t_allocations;
  for (int i = 0; i < kOps; ++i) eager();
  rows.eager_allocs_per_op = static_cast<double>(t_allocations - allocations) / kOps;
  return rows;
}

struct CollRow {
  std::string name;
  double wall_us = 0;
  double virt_us = 0;
};

/// Marginal cost of one call: the median over three tries of a run of 2N
/// calls minus a run of N, over N, so the fixed cost of starting a run does
/// not count. `run(n)` returns {wall seconds, virtual seconds}.
template <typename Run>
std::pair<double, double> marginal_per_call(int calls, Run run) {
  std::vector<double> wall;
  std::vector<double> virt;
  for (int i = 0; i < 3; ++i) {
    const auto [wall_n, virt_n] = run(calls);
    const auto [wall_2n, virt_2n] = run(2 * calls);
    wall.push_back((wall_2n - wall_n) / calls);
    virt.push_back((virt_2n - virt_n) / calls);
  }
  return {median(std::move(wall)), median(std::move(virt))};
}

/// One blocking collective on a bare umpi::Runtime of vasp-cc's shape:
/// marginal wall time per call across the job, and the virtual time per
/// call of the algorithm the selector picked.
template <typename Body>
CollRow coll_row(const std::string& name, int calls, Body body) {
  const auto [wall, virt] = marginal_per_call(calls, [&body](int n) {
    umpi::Runtime runtime(engine_config(kVaspCc, Protocol::kNative).runtime);
    const auto start = Clock::now();
    runtime.run([&](umpi::Rank& rank) { body(rank, n); });
    return std::pair{seconds_since(start), simnet::to_seconds(runtime.max_clock())};
  });
  return {name, wall * 1e6, virt * 1e6};
}

std::vector<CollRow> coll_rows() {
  std::vector<CollRow> rows;
  rows.push_back(coll_row("barrier", 100, [](umpi::Rank& rank, int calls) {
    for (int i = 0; i < calls; ++i) rank.barrier(rank.world());
  }));
  rows.push_back(coll_row("allreduce-8B", 100, [](umpi::Rank& rank, int calls) {
    double in = rank.world_rank();
    double out = 0;
    for (int i = 0; i < calls; ++i) {
      rank.allreduce(rank.world(), std::as_bytes(std::span(&in, 1)),
                     std::as_writable_bytes(std::span(&out, 1)),
                     umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
    }
  }));
  // One 1 KiB block per peer: the VASP proxy's FFT transpose block.
  rows.push_back(coll_row("alltoall-1KiB", 2, [](umpi::Rank& rank, int calls) {
    std::vector<std::byte> send(std::size_t{1024} *
                                static_cast<std::size_t>(rank.world_size()));
    std::vector<std::byte> recv(send.size());
    for (int i = 0; i < calls; ++i) rank.alltoall(rank.world(), send, recv);
  }));
  rows.push_back(coll_row("bcast-8B", 100, [](umpi::Rank& rank, int calls) {
    double value = rank.world_rank() == 0 ? 1.0 : 0.0;
    for (int i = 0; i < calls; ++i) {
      rank.bcast(rank.world(), std::as_writable_bytes(std::span(&value, 1)), 0,
                 umpi::Datatype::kDouble);
    }
  }));
  return rows;
}

// split.wrapper_ns.* compares split::Api::allreduce with the bare
// umpi::Rank::allreduce on a one-rank world: the collective itself is
// trivial there, so the difference is the wrapper's own bookkeeping rather
// than the noise of a 256-rank exchange.
constexpr Shape kOneRank{1, 1, "flat:rpn=1", 1};
constexpr int kWrapperCalls = 20'000;

/// Marginal wall seconds per 8-byte umpi::Rank::allreduce on one rank.
double bare_allreduce_s() {
  return marginal_per_call(kWrapperCalls, [](int calls) {
    umpi::Runtime runtime(engine_config(kOneRank, Protocol::kNative).runtime);
    const auto start = Clock::now();
    runtime.run([calls](umpi::Rank& rank) {
      double in = 1;
      double out = 0;
      for (int i = 0; i < calls; ++i) {
        rank.allreduce(rank.world(), std::as_bytes(std::span(&in, 1)),
                       std::as_writable_bytes(std::span(&out, 1)),
                       umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
      }
    });
    return std::pair{seconds_since(start), 0.0};
  }).first;
}

/// Marginal wall seconds per 8-byte split::Api::allreduce on one rank.
double api_allreduce_s(Protocol protocol) {
  return marginal_per_call(kWrapperCalls, [protocol](int calls) {
    Engine engine(engine_config(kOneRank, protocol));
    const auto start = Clock::now();
    engine.run([calls](Api& api) {
      double in = 1;
      double out = 0;
      for (int i = 0; i < calls; ++i) {
        api.allreduce(split::kWorldComm, std::as_bytes(std::span(&in, 1)),
                      std::as_writable_bytes(std::span(&out, 1)),
                      umpi::Datatype::kDouble, umpi::ReduceOp::kSum);
      }
    });
    return std::pair{seconds_since(start), 0.0};
  }).first;
}

/// Median constructor time (seconds) of a T built from `config`;
/// destruction is not timed.
template <typename T, typename Config>
double construction_s(const Config& config) {
  std::vector<double> xs;
  for (int i = 0; i < 3; ++i) {
    std::optional<T> object;
    const auto start = Clock::now();
    object.emplace(config);
    xs.push_back(seconds_since(start));
  }
  return median(std::move(xs));
}

/// vasp-storm's per-rank registered segment set: the VaspProxy buffers at
/// the storm parameters (band communicators of 32 ranks).
class StormState {
 public:
  StormState() {
    const workloads::VaspProxy vasp = vasp_proxy("vasp-storm", 0);
    const auto band = static_cast<std::size_t>(kVaspStorm.world / vasp.band_groups);
    psi_.resize(static_cast<std::size_t>(vasp.wavefunction_elems));
    pp_tables_.resize(static_cast<std::size_t>(vasp.pseudopotential_elems));
    fft_send_.resize(static_cast<std::size_t>(vasp.fft_block_elems) * band);
    fft_recv_.resize(fft_send_.size());
    std::uint64_t seed = 1;
    for (auto* v : {&psi_, &pp_tables_, &fft_send_, &fft_recv_, &halo_left_, &halo_right_,
                    &halo_out_}) {
      workloads::deterministic_fill(*v, seed++);
    }
    registry_.register_segment("psi", std::as_writable_bytes(std::span(psi_)));
    registry_.register_segment("pp_tables", std::as_writable_bytes(std::span(pp_tables_)));
    registry_.register_segment("fft_send", std::as_writable_bytes(std::span(fft_send_)));
    registry_.register_segment("fft_recv", std::as_writable_bytes(std::span(fft_recv_)));
    registry_.register_segment("halo_left", std::as_writable_bytes(std::span(halo_left_)));
    registry_.register_segment("halo_right", std::as_writable_bytes(std::span(halo_right_)));
    registry_.register_segment("halo_out", std::as_writable_bytes(std::span(halo_out_)));
    registry_.register_value("energy_local", energy_local_);
    registry_.register_value("energy_total", energy_total_);
    registry_.register_value("mix", mix_);
    registry_.register_value("rng", rng_);
  }
  StormState(const StormState&) = delete;
  StormState& operator=(const StormState&) = delete;

  [[nodiscard]] const ckpt::Registry& registry() const { return registry_; }

 private:
  std::vector<double> psi_, pp_tables_, fft_send_, fft_recv_;
  std::vector<double> halo_left_ = std::vector<double>(64);
  std::vector<double> halo_right_ = std::vector<double>(64);
  std::vector<double> halo_out_ = std::vector<double>(64);
  double energy_local_ = 0.5;
  double energy_total_ = 32.0;
  double mix_ = 1e-3;
  std::uint64_t rng_ = 0xa5c0;
  ckpt::Registry registry_;
};

struct CkptRows {
  double capture_us_per_mib = 0;
  double encode_mb_s = 0;
  double parse_mb_s = 0;
  double publish_ms = 0;
  double read_world_ms = 0;
};

/// ckpt rows over vasp-storm's per-rank segment set and world size.
CkptRows ckpt_rows(const std::string& root, Tracer& tracer) {
  const StormState state;
  const double mib = static_cast<double>(state.registry().total_bytes()) / kMiB;
  CkptRows rows;
  ckpt::CkptImage image;
  image.world_size = kVaspStorm.world;
  image.rank = 0;
  image.cycle = 1;
  {
    Span span(tracer, "ckpt.capture");
    rows.capture_us_per_mib =
        median_seconds(5, [&] { image.blobs = state.registry().capture(); }) * 1e6 / mib;
  }
  std::vector<std::byte> bytes;
  {
    Span span(tracer, "ckpt.encode");
    rows.encode_mb_s = mib / median_seconds(5, [&] {
      bytes = ckpt::ImageFile::from_image(image, ckpt::ImageFile::kDefaultChunkBytes,
                                          nullptr, 0)
                  .serialize();
    });
  }
  ckpt::CkptImage parsed;
  {
    Span span(tracer, "ckpt.parse");
    rows.parse_mb_s = mib / median_seconds(5, [&] {
      parsed = ckpt::ImageFile::parse(bytes).materialize();
    });
  }
  if (parsed.blobs != image.blobs) throw RuntimeFault("image parse round trip differs");

  ckpt::WriterConfig config;  // sync, full, generational: the engine defaults
  config.image_dir = root;
  config.world = kVaspStorm.world;
  config.ranks_per_node = kVaspStorm.ranks_per_node;
  ckpt::Writer writer(config);
  constexpr std::uint64_t kGenerations = 3;
  std::vector<double> publish;
  for (std::uint64_t gen = 1; gen <= kGenerations; ++gen) {
    std::vector<ckpt::CkptImage> images(static_cast<std::size_t>(kVaspStorm.world), image);
    for (int r = 0; r < kVaspStorm.world; ++r) {
      images[static_cast<std::size_t>(r)].rank = r;
      images[static_cast<std::size_t>(r)].cycle = gen;
    }
    Span span(tracer, "ckpt.publish");
    const auto start = Clock::now();
    for (auto& one : images) (void)writer.submit(gen, std::move(one));
    writer.flush();
    publish.push_back(seconds_since(start));
  }
  rows.publish_ms = median(std::move(publish)) * 1e3;
  {
    Span span(tracer, "ckpt.read_world");
    rows.read_world_ms = median_seconds(3, [&] {
      const auto valid = ckpt::GenerationStore::latest_valid(root, kVaspStorm.world);
      if (!valid.has_value() || valid->gen != kGenerations) {
        throw RuntimeFault("read_world did not find the newest generation");
      }
    }) * 1e3;
  }
  return rows;
}

void run_layers(const Args& args) {
  Tracer tracer(args.has("trace-out"), 0);
  ScratchDir dir(args.get("tmp"), "layers");
  Result out;
  {
    Span span(tracer, "sched.yield");
    out.number("sched.yield_ns", yield_ns());
  }
  {
    Span span(tracer, "sched.park_notify");
    out.number("sched.park_notify_ns", park_notify_ns());
  }
  {
    Span span(tracer, "simnet.match");
    const MatchRows rows = match_rows();
    out.number("simnet.eager_match_ns", rows.eager_ns);
    out.number("simnet.unexpected_match_ns", rows.unexpected_ns);
    out.number("simnet.eager_allocs_per_op", rows.eager_allocs_per_op);
  }
  {
    Span span(tracer, "umpi.coll");
    for (const CollRow& row : coll_rows()) {
      out.number("umpi.coll_wall_us." + row.name, row.wall_us);
      out.number("umpi.coll_virt_us." + row.name, row.virt_us);
    }
  }
  double runtime_s = 0;
  {
    Span span(tracer, "umpi.runtime_setup");
    runtime_s = construction_s<umpi::Runtime>(
        engine_config(kWideWorld, Protocol::kNative).runtime);
    out.number("umpi.runtime_setup_ms", runtime_s * 1e3);
  }
  {
    Span span(tracer, "split.wrapper");
    const std::pair<const char*, Protocol> protocols[] = {
        {"native", Protocol::kNative}, {"cc", Protocol::kCC}, {"tpc", Protocol::kTpc}};
    const double bare_s = bare_allreduce_s();
    for (const auto& [label, protocol] : protocols) {
      out.number(std::string("split.wrapper_ns.") + label,
                 (api_allreduce_s(protocol) - bare_s) * 1e9);
    }
  }
  {
    Span span(tracer, "split.engine_setup");
    EngineConfig config = engine_config(kWideWorld, Protocol::kCC);
    config.image_dir = dir.sub("engine");
    out.number("split.engine_setup_ms", (construction_s<Engine>(config) - runtime_s) * 1e3);
  }
  {
    Span span(tracer, "ckpt");
    const CkptRows rows = ckpt_rows(dir.sub("generations"), tracer);
    out.number("ckpt.capture_us_per_mib", rows.capture_us_per_mib);
    out.number("ckpt.encode_mb_s", rows.encode_mb_s);
    out.number("ckpt.parse_mb_s", rows.parse_mb_s);
    out.number("ckpt.publish_ms", rows.publish_ms);
    out.number("ckpt.read_world_ms", rows.read_world_ms);
  }
  out.flag("ok", true);
  if (args.has("trace-out")) tracer.write(args.get("trace-out"));
  out.print();
}

}  // namespace
}  // namespace manatee::perfbench

int main(int argc, char** argv) {
  using namespace manatee::perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s job|twin|layers --key value ...\n", argv[0]);
    return 2;
  }
  try {
    // Generous watchdog: a loaded machine must not turn a slow run into a
    // reported deadlock; run.py bounds the whole process anyway.
    manatee::simnet::MessageStore::set_wait_timeout_ms(120'000);
    const Args args(argc, argv);
    const std::string mode = argv[1];
    if (mode == "job") {
      run_job(args);
    } else if (mode == "twin") {
      run_twin(args);
    } else if (mode == "layers") {
      run_layers(args);
    } else {
      throw manatee::UsageError("unknown mode '" + mode + "'");
    }
    return 0;
  } catch (const std::exception& e) {
    Result out;
    out.flag("ok", false);
    out.text("error", e.what());
    out.print();
    return 1;
  }
}
