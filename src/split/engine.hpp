// engine.hpp — the top-level orchestrator: launches an UMPI job under a
// checkpoint protocol, takes checkpoints, and restarts jobs from images.
//
// One Engine = one job execution (a fresh "lower half"). A typical
// chained-allocation workflow (the paper's motivating use case) is:
//
//   Engine first(config);                 // allocation 1
//   auto r1 = first.run(app);             // checkpoints per config triggers
//   Engine second(config);                // allocation 2 (fresh lower half)
//   auto r2 = second.restart(app);        // resumes from the images
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/coordinator.hpp"
#include "ckpt/image.hpp"
#include "ckpt/registry.hpp"
#include "ckpt/writer.hpp"
#include "core/drain_graph.hpp"
#include "core/drain_manager.hpp"
#include "core/trace.hpp"
#include "split/api.hpp"
#include "split/failure_schedule.hpp"
#include "umpi/runtime.hpp"

namespace manatee::ckpt {

/// Has no effect: nothing reads it. The benchmark harness (perfbench/)
/// still names both values, so the declaration stays until the next change
/// to the benchmark, and goes away with it.
enum class SwitchDrainMode : int { kCutThrough = 0, kQuiesce = 1 };

}  // namespace manatee::ckpt

namespace manatee::split {

enum class Protocol { kNative, kCC, kTpc };

[[nodiscard]] const char* protocol_name(Protocol p) noexcept;

struct EngineConfig {
  umpi::RuntimeConfig runtime;
  Protocol protocol = Protocol::kNative;

  /// Directory for checkpoint images (must exist when checkpointing).
  std::string image_dir;

  /// When this run requests checkpoints: collective-count triggers, fixed
  /// virtual-time points, and/or seeded Poisson arrivals (all deterministic;
  /// see failure_schedule.hpp).
  FailureSchedule failures;

  /// End the job right after the first completed checkpoint (the chained
  /// resource-allocation pattern), even when every rank had already reached
  /// finalize: the run then reports stopped_after_checkpoint and is resumed
  /// by restart().
  bool stop_after_checkpoint = false;

  /// 0: flat image layout (one image set, overwritten each cycle).
  /// K ≥ 1: generational layout — every cycle writes a new numbered
  /// generation under image_dir and the Lifecycle driver prunes all but the
  /// newest K after each segment (ckpt/generation.hpp).
  int retain_generations = 0;

  // ---- checkpoint write-back pipeline (ckpt/writer.hpp); all opt-in ----
  /// Incremental images: store only chunks changed since the previous
  /// generation (generational mode only).
  bool ckpt_delta = false;
  /// Move serialization/hashing/writes off the rank critical path onto the
  /// dedicated writer thread; ranks resume after capture.
  bool ckpt_async = false;
  /// Mirror each node's images into its ring partner's subtree.
  bool ckpt_replicate = false;
  /// With ckpt_delta: every Nth generation is written full, bounding the
  /// restart chain walk.
  int ckpt_full_every = 8;
  /// Test seam: called once per staged generation; return false to skip
  /// the publish rename (simulated crash between staging and publication).
  std::function<bool(std::uint64_t)> ckpt_publish_hook;

  /// Record per-rank event traces for the drain-graph oracle (tests).
  bool record_trace = false;

  /// Has no effect (see ckpt::SwitchDrainMode); goes away with the next
  /// change to the benchmark harness, which still sets it.
  ckpt::SwitchDrainMode switch_drain = ckpt::SwitchDrainMode::kCutThrough;
};

struct RunReport {
  simnet::SimTime makespan = 0;
  std::uint64_t wrapper_collective_calls = 0;
  std::uint64_t wrapper_p2p_calls = 0;
  std::uint64_t checkpoints = 0;
  /// Per completed cycle: request-observed → every rank resumed computing
  /// (virtual). Sync write-back: includes the stable-storage write. Async:
  /// the *stall* only — the PFS drain continues in ckpt_drain_durations.
  std::vector<simnet::SimTime> ckpt_durations;
  /// Per completed cycle: request-observed → generation durable on the
  /// simulated PFS. Sync write-back: equals ckpt_durations. Async: stall
  /// plus the modeled drain of the bytes actually written.
  std::vector<simnet::SimTime> ckpt_drain_durations;
  /// Per completed cycle: bytes physically written (delta savings and
  /// replica copies show up here; image_bytes_total stays logical).
  std::vector<std::uint64_t> ckpt_written_bytes;
  std::uint64_t written_bytes_total = 0;
  /// restart(): virtual time until every rank finished replay.
  simnet::SimTime restart_duration = 0;
  /// stop_after_checkpoint was set and a checkpoint completed.
  bool stopped_after_checkpoint = false;
  /// restart() in generational mode: the generation the run restored from
  /// (0 for flat-layout restores).
  std::uint64_t restored_generation = 0;
  std::uint64_t ckpt_protocol_messages = 0;
  std::uint64_t collective_messages = 0;
  std::uint64_t image_bytes_total = 0;
  /// Execution-engine telemetry (stack pool traffic, peak committed stack
  /// bytes, stackless parks / fallbacks under the events backend). Wall-
  /// schedule dependent by nature: excluded from cross-backend equivalence
  /// comparisons, which assert virtual-time quantities only.
  sched::SchedStats sched;

  [[nodiscard]] double seconds() const noexcept {
    return simnet::to_seconds(makespan);
  }
};

/// Per-rank engine context shared between Engine and Api.
struct EngineRankCtx {
  std::unique_ptr<core::DrainManager> manager;
  ckpt::Registry registry;
  core::TraceLog trace;
  std::optional<ckpt::CkptImage> restore_image;
  simnet::SimTime replay_done_clock = 0;
  std::uint64_t image_bytes_written = 0;
};

using WrappedApp = std::function<void(Api&)>;

class Engine {
 public:
  explicit Engine(EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run the application from the beginning.
  RunReport run(const WrappedApp& app);

  /// Run the application resuming from the images in config.image_dir.
  RunReport restart(const WrappedApp& app);

  /// Thread-safe external checkpoint request (in addition to configured
  /// triggers). Idempotent while a cycle is in flight. Posts every rank's
  /// SEQ snapshot out-of-band (the DMTCP checkpoint-thread analogue), so
  /// ranks blocked inside pre-request collectives still contribute their
  /// clocks to Algorithm 1.
  void request_checkpoint();

  /// Schedule check at a wrapper boundary. Called only on the trigger
  /// rank's thread (single consumer, no locking); a true return means the
  /// caller should request_checkpoint(). No-op during replay.
  [[nodiscard]] bool schedule_should_fire(std::uint64_t collective_calls,
                                          simnet::SimTime now) {
    return cursor_.should_fire(collective_calls, now);
  }
  /// Cursor state after the run — per-source consumption counts and the
  /// Poisson stream position, for chaining schedules across segments.
  [[nodiscard]] const ScheduleCursor& schedule_cursor() const noexcept {
    return cursor_;
  }

  /// Where this rank's image of checkpoint cycle `cycle` is written:
  /// flat layout (retain_generations == 0) or the numbered generation
  /// directory continuing after the generations already on disk.
  [[nodiscard]] std::string image_path_for(int world_rank,
                                           std::uint64_t cycle) const;
  /// Generation number cycle `cycle` of this engine maps to (0 in flat mode).
  [[nodiscard]] std::uint64_t generation_for_cycle(std::uint64_t cycle) const;

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] umpi::Runtime& runtime() noexcept { return runtime_; }
  [[nodiscard]] ckpt::Coordinator& coordinator() noexcept { return coordinator_; }
  /// The checkpoint write-back pipeline (null for native-protocol engines,
  /// which never write images).
  [[nodiscard]] ckpt::Writer* writer() noexcept { return writer_.get(); }
  [[nodiscard]] EngineRankCtx& rank_ctx(int world_rank);

  /// Per-rank event traces (when config.record_trace), for the oracle.
  [[nodiscard]] std::vector<std::vector<core::TraceEvent>> traces() const;

  /// Drain-graph oracle wired with this engine's traces and the
  /// coordinator's forced-target record (the p2p-cascade cut extension).
  [[nodiscard]] core::DrainGraph make_drain_graph() const;

  /// Human-readable tail of every rank's drain trace (failure diagnostics).
  [[nodiscard]] std::string describe_traces(std::size_t tail = 20) const;

 private:
  RunReport execute(const WrappedApp& app, bool restoring);
  std::unique_ptr<core::DrainManager> make_manager(umpi::Rank& rank,
                                                   core::TraceLog* trace);
  /// Generational restore: newest valid generation, falling back past
  /// corrupt/missing ones; throws CheckpointError when none is usable.
  std::uint64_t load_restore_images();

  EngineConfig config_;
  umpi::Runtime runtime_;
  ckpt::Coordinator coordinator_;
  std::unique_ptr<ckpt::Writer> writer_;
  std::vector<std::unique_ptr<EngineRankCtx>> ctxs_;
  ScheduleCursor cursor_;
  /// Highest generation already on disk at construction; this engine's
  /// cycle c writes generation base_generation_ + c.
  std::uint64_t base_generation_ = 0;
  std::uint64_t restored_generation_ = 0;
};

}  // namespace manatee::split
