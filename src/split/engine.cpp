#include "split/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "ckpt/generation.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "core/cc_algorithm.hpp"
#include "core/protocol_base.hpp"
#include "core/two_phase_commit.hpp"

namespace manatee::split {

namespace {

/// Stable-storage time for `bytes` with the aggregate PFS bandwidth shared
/// across the job (same model as Api's capture path).
simnet::SimTime pfs_time(std::uint64_t bytes, int world_size, double lustre_gbps) {
  return static_cast<simnet::SimTime>(static_cast<double>(bytes) *
                                      static_cast<double>(world_size) /
                                      lustre_gbps);
}

/// MANATEE_SWITCH_DRAIN=quiesce flips the switch-drain strategy suite-wide
/// (mirrors MANATEE_COLL); an explicit config choice wins.
ckpt::SwitchDrainMode resolved_switch_drain(const EngineConfig& config) {
  if (config.switch_drain != ckpt::SwitchDrainMode::kCutThrough) {
    return config.switch_drain;
  }
  const char* env = std::getenv("MANATEE_SWITCH_DRAIN");
  if (env != nullptr && std::string_view(env) == "quiesce") {
    return ckpt::SwitchDrainMode::kQuiesce;
  }
  return config.switch_drain;
}

}  // namespace

const char* protocol_name(Protocol p) noexcept {
  switch (p) {
    case Protocol::kNative: return "native";
    case Protocol::kCC: return "cc";
    case Protocol::kTpc: return "2pc";
  }
  return "?";
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      runtime_(config_.runtime),
      coordinator_(config_.runtime.world_size, &runtime_.fabric(),
                   resolved_switch_drain(config_)),
      cursor_(config_.failures) {
  MANATEE_REQUIRE(config_.retain_generations >= 0,
                  "retain_generations must be non-negative");
  MANATEE_REQUIRE(config_.retain_generations == 0 || !config_.image_dir.empty(),
                  "generational checkpoints need an image directory");
  MANATEE_REQUIRE(config_.ckpt_full_every >= 1, "ckpt_full_every must be ≥ 1");
  if (config_.retain_generations > 0) {
    base_generation_ = ckpt::GenerationStore::latest(config_.image_dir);
  }
  const int world = config_.runtime.world_size;
  if (!config_.image_dir.empty() && config_.protocol != Protocol::kNative) {
    ckpt::WriterConfig wc;
    wc.image_dir = config_.image_dir;
    wc.world = world;
    wc.ranks_per_node = config_.runtime.ranks_per_node;
    wc.generational = config_.retain_generations > 0;
    wc.async = config_.ckpt_async;
    wc.delta = config_.ckpt_delta;
    wc.replicate = config_.ckpt_replicate;
    wc.full_every = config_.ckpt_full_every;
    wc.publish_hook = config_.ckpt_publish_hook;
    writer_ = std::make_unique<ckpt::Writer>(std::move(wc));
  }
  ctxs_.reserve(static_cast<std::size_t>(world));
  for (int i = 0; i < world; ++i) {
    auto ctx = std::make_unique<EngineRankCtx>();
    ctx->trace.set_enabled(config_.record_trace);
    ctx->manager = make_manager(runtime_.rank(i), &ctx->trace);
    ctxs_.push_back(std::move(ctx));
  }
}

Engine::~Engine() = default;

std::unique_ptr<core::DrainManager> Engine::make_manager(umpi::Rank& rank,
                                                         core::TraceLog* trace) {
  switch (config_.protocol) {
    case Protocol::kNative: return std::make_unique<core::NativeManager>();
    case Protocol::kCC:
      return std::make_unique<core::CcManager>(rank, coordinator_, trace);
    case Protocol::kTpc:
      return std::make_unique<core::TpcManager>(rank, coordinator_, trace);
  }
  throw UsageError("unknown protocol");
}

EngineRankCtx& Engine::rank_ctx(int world_rank) {
  MANATEE_REQUIRE(world_rank >= 0 && world_rank < runtime_.world_size(),
                  "rank out of range");
  return *ctxs_[static_cast<std::size_t>(world_rank)];
}

void Engine::request_checkpoint() {
  if (!coordinator_.request_checkpoint()) return;
  // Generation directories are no longer created here: the writer stages
  // each generation under gen_NNNNNN.tmp and publishes it atomically once
  // every rank's image (and replica) is durable.
  for (int r = 0; r < runtime_.world_size(); ++r) {
    ctxs_[static_cast<std::size_t>(r)]->manager->post_initial_state(r);
  }
}

std::uint64_t Engine::generation_for_cycle(std::uint64_t cycle) const {
  return config_.retain_generations > 0 ? base_generation_ + cycle : 0;
}

std::string Engine::image_path_for(int world_rank, std::uint64_t cycle) const {
  if (config_.retain_generations > 0) {
    return ckpt::GenerationStore::image_path(config_.image_dir,
                                             generation_for_cycle(cycle),
                                             world_rank);
  }
  return ckpt::CkptImage::path_for(config_.image_dir, world_rank);
}

RunReport Engine::run(const WrappedApp& app) { return execute(app, false); }

std::uint64_t Engine::load_restore_images() {
  const int world = runtime_.world_size();
  if (!ckpt::GenerationStore::has_generations(config_.image_dir)) {
    // Flat single-image layout.
    for (int i = 0; i < world; ++i) {
      ctxs_[static_cast<std::size_t>(i)]->restore_image =
          ckpt::CkptImage::read_file(
              ckpt::CkptImage::path_for(config_.image_dir, i));
    }
    return 0;
  }
  // Generational layout: newest valid generation wins; a corrupt or
  // incomplete latest generation falls back to its predecessor
  // (GenerationStore::latest_valid logs every generation it skips).
  auto valid = ckpt::GenerationStore::latest_valid(config_.image_dir, world);
  if (!valid.has_value()) {
    throw CheckpointError("no usable checkpoint generation under " +
                          config_.image_dir);
  }
  if (writer_ != nullptr) {
    // Prime the delta state so this engine's first checkpoint can be a
    // delta against the restored generation (chain depth carries over).
    writer_->seed_delta(valid->gen, valid->images);
  }
  for (int i = 0; i < world; ++i) {
    ctxs_[static_cast<std::size_t>(i)]->restore_image =
        std::move(valid->images[static_cast<std::size_t>(i)]);
  }
  return valid->gen;
}

RunReport Engine::restart(const WrappedApp& app) {
  MANATEE_REQUIRE(!config_.image_dir.empty(), "restart needs an image directory");
  restored_generation_ = load_restore_images();
  return execute(app, true);
}

RunReport Engine::execute(const WrappedApp& app, bool restoring) {
  MANATEE_REQUIRE(
      config_.protocol != Protocol::kNative || config_.failures.empty(),
      "checkpoint triggers require the CC or 2PC protocol");

  std::vector<std::uint64_t> coll_calls(
      static_cast<std::size_t>(runtime_.world_size()), 0);
  std::vector<std::uint64_t> p2p_calls(coll_calls.size(), 0);

  runtime_.run([&](umpi::Rank& rank) {
    auto& ctx = *ctxs_[static_cast<std::size_t>(rank.world_rank())];
    Api api(rank, ctx, *this);
    bool early = false;
    try {
      app(api);
    } catch (const StopAfterCheckpoint&) {
      early = true;
      runtime_.request_stop();  // unblock peers waiting on this rank
    } catch (const JobStopping&) {
      early = true;
    }
    api.finalize(early);
    coll_calls[static_cast<std::size_t>(rank.world_rank())] = api.collective_calls();
    p2p_calls[static_cast<std::size_t>(rank.world_rank())] = api.p2p_calls();
  });

  // Barrier the write-back pipeline: every submitted image must be on disk
  // (and publication attempted) before the report claims anything about it.
  if (writer_ != nullptr) writer_->flush();

  RunReport report;
  report.makespan = runtime_.max_clock();
  report.sched = runtime_.sched_stats();
  for (auto c : coll_calls) report.wrapper_collective_calls += c;
  for (auto c : p2p_calls) report.wrapper_p2p_calls += c;
  report.checkpoints = coordinator_.completed_cycles();
  // The simulated crash lands right after the first completed checkpoint,
  // even when every rank had already reached finalize by then: where the
  // cut lands depends on the wall-clock schedule, whether the job stops
  // must not.
  report.stopped_after_checkpoint =
      config_.stop_after_checkpoint && report.checkpoints > 0;
  report.ckpt_protocol_messages =
      runtime_.fabric().counters(simnet::TrafficClass::kCkptProtocol).messages;
  report.collective_messages =
      runtime_.fabric().counters(simnet::TrafficClass::kCollective).messages;

  // Per-cycle checkpoint durations: request observed (min over ranks) to
  // ranks resumed (max over ranks), in virtual time. With async write-back
  // that is the *stall*; the drain column adds the modeled PFS write of the
  // bytes the writer actually produced for the cycle.
  const auto wstats = writer_ != nullptr
                          ? writer_->stats()
                          : std::map<std::uint64_t, ckpt::GenerationStats>{};
  for (std::uint64_t cycle = 1; cycle <= report.checkpoints; ++cycle) {
    simnet::SimTime start = std::numeric_limits<simnet::SimTime>::max();
    simnet::SimTime end = 0;
    bool have = true;
    for (const auto& ctx : ctxs_) {
      const auto* base =
          dynamic_cast<const core::ProtocolManagerBase*>(ctx->manager.get());
      if (base == nullptr || base->request_clocks().size() < cycle ||
          base->write_clocks().size() < cycle) {
        have = false;
        break;
      }
      start = std::min(start, base->request_clocks()[cycle - 1]);
      end = std::max(end, base->write_clocks()[cycle - 1]);
    }
    if (!have) continue;
    const simnet::SimTime stall = end - start;
    report.ckpt_durations.push_back(stall);
    const auto it = wstats.find(cycle);
    const std::uint64_t written = it != wstats.end() ? it->second.written_bytes : 0;
    report.ckpt_written_bytes.push_back(written);
    simnet::SimTime drain = stall;
    if (config_.ckpt_async && it != wstats.end()) {
      drain += pfs_time(written, runtime_.world_size(),
                        runtime_.cost().params().lustre_gbps);
    }
    report.ckpt_drain_durations.push_back(drain);
  }

  for (const auto& ctx : ctxs_) {
    report.image_bytes_total += ctx->image_bytes_written;
  }
  for (const auto& [cycle, s] : wstats) {
    report.written_bytes_total += s.written_bytes;
  }
  if (restoring) {
    report.restored_generation = restored_generation_;
    for (const auto& ctx : ctxs_) {
      report.restart_duration = std::max(report.restart_duration,
                                         ctx->replay_done_clock);
    }
  }
  return report;
}

std::vector<std::vector<core::TraceEvent>> Engine::traces() const {
  std::vector<std::vector<core::TraceEvent>> out;
  out.reserve(ctxs_.size());
  for (const auto& ctx : ctxs_) out.push_back(ctx->trace.events());
  return out;
}

core::DrainGraph Engine::make_drain_graph() const {
  return core::DrainGraph(traces(), coordinator_.forced_by_cycle());
}

std::string Engine::describe_traces(std::size_t tail) const {
  std::string out;
  for (std::size_t r = 0; r < ctxs_.size(); ++r) {
    out += "rank " + std::to_string(r) + " trace tail:\n" +
           core::describe_tail(ctxs_[r]->trace.events(), tail);
  }
  return out;
}

}  // namespace manatee::split
