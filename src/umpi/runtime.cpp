#include "umpi/runtime.hpp"

#include <cstdlib>
#include <string_view>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"

namespace manatee::umpi {

namespace {

/// MANATEE_COLL flips the collective stack suite-wide: "switch" forces the
/// in-switch barrier/bcast (and turns the capability on in the topology),
/// "hier" forces the hierarchical algorithms. Explicitly forced entries in
/// the config always win — the env preset only fills an untouched tuning.
RuntimeConfig with_env_presets(RuntimeConfig config) {
  const char* preset = std::getenv("MANATEE_COLL");
  if (preset == nullptr || *preset == '\0') return config;
  for (const auto& name : config.coll.forced) {
    if (!name.empty()) return config;
  }
  const std::string_view p = preset;
  if (p == "switch") {
    config.topo.switch_coll = true;
    config.coll.force(coll::CollKind::kBarrier, "switch");
    config.coll.force(coll::CollKind::kBcast, "switch");
  } else if (p == "hier") {
    config.coll.force(coll::CollKind::kBarrier, "hier");
    config.coll.force(coll::CollKind::kBcast, "hier");
    config.coll.force(coll::CollKind::kReduce, "hier");
    config.coll.force(coll::CollKind::kAllreduce, "hier");
  } else {
    throw UsageError(std::string("unknown MANATEE_COLL preset '") + preset +
                     "' (expected 'switch' or 'hier')");
  }
  return config;
}

simnet::TopoSpec resolved_topo(const RuntimeConfig& config) {
  simnet::TopoSpec spec = config.topo;
  if (spec.ranks_per_node == 0) spec.ranks_per_node = config.ranks_per_node;
  return spec;
}

}  // namespace

Runtime::Runtime(RuntimeConfig config)
    : config_(with_env_presets(std::move(config))),
      fabric_(simnet::Topology(config_.world_size, resolved_topo(config_)),
              simnet::CostModel(config_.cost)),
      world_group_(Group::world(config_.world_size)),
      next_base_context_(kWorldBaseContext + 1) {
  MANATEE_REQUIRE(config_.world_size > 0, "world size must be positive");
  // One world collective module for the whole job: its inputs (tuning,
  // size, topology view) are identical across ranks, and the topology-view
  // scan is O(p log p) — per-rank construction would make startup
  // O(p^2 log p) and dominate 64k-rank worlds before the first message.
  world_coll_module_ = std::make_shared<const coll::CollModule>(
      config_.coll, world_group_.size(),
      coll::make_topo_view(world_group_, topology()));
  ranks_.reserve(static_cast<std::size_t>(config_.world_size));
  for (int i = 0; i < config_.world_size; ++i) {
    ranks_.push_back(std::make_unique<Rank>(*this, i));
  }
}

Runtime::~Runtime() = default;

Rank& Runtime::rank(int world_rank) {
  MANATEE_REQUIRE(world_rank >= 0 && world_rank < config_.world_size,
                  "world rank out of range");
  return *ranks_[static_cast<std::size_t>(world_rank)];
}

void Runtime::run(const AppFn& app) {
  MANATEE_REQUIRE(!ran_, "Runtime::run may be called once per Runtime");
  ran_ = true;

  common::Mutex error_mutex;  // lock level 20: leaf, only on the abort path
  std::exception_ptr first_error;

  // One task per rank, executed by the configured scheduler backend — OS
  // threads or fibers on a worker pool. set_log_thread_label writes through
  // the fiber-local label slot, so multiplexed ranks keep their own labels.
  sched_stats_ = sched::run_tasks(
      config_.sched, config_.world_size, [&](int world_rank) {
        Rank& r = *ranks_[static_cast<std::size_t>(world_rank)];
        set_log_thread_label("rank " + std::to_string(r.world_rank()));
        try {
          app(r);
        } catch (...) {
          {
            common::MutexLock lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          aborted_.store(true, std::memory_order_release);
          fabric_.notify_all_ranks();  // unblock peers to observe the abort
        }
      });
  if (first_error) std::rethrow_exception(first_error);
}

simnet::SimTime Runtime::max_clock() const {
  simnet::SimTime m = 0;
  for (const auto& rank : ranks_) {
    m = std::max(m, rank->clock().now());
  }
  return m;
}

CallCounters Runtime::total_counters() const {
  CallCounters total;
  for (const auto& rank : ranks_) {
    total.collective_calls += rank->counters().collective_calls;
    total.p2p_calls += rank->counters().p2p_calls;
  }
  return total;
}

void Runtime::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  fabric_.notify_all_ranks();
}

std::uint64_t Runtime::allocate_context_block(int count) {
  MANATEE_REQUIRE(count > 0, "context block count must be positive");
  return next_base_context_.fetch_add(static_cast<std::uint64_t>(count),
                                      std::memory_order_relaxed);
}

}  // namespace manatee::umpi
