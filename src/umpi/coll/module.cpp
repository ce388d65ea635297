#include "umpi/coll/module.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "common/error.hpp"
#include "common/options.hpp"
#include "simnet/topology.hpp"
#include "umpi/group.hpp"
#include "umpi/nbc.hpp"

namespace manatee::umpi::coll {

namespace {

bool is_pow2(int p) noexcept { return p > 0 && (p & (p - 1)) == 0; }

/// Payload size driving the latency/bandwidth trade-off, per collective.
/// For the rooted fan-out/fan-in collectives the quantity the
/// large_message_bytes threshold gates is the ROOT's total volume, but the
/// argument spans hold per-peer blocks (scatter's recv is one receiver's
/// chunk, gather's send is one sender's chunk) — scale them by the
/// communicator size so both sides see the same total and the
/// gather/scatter crossover is judged on comparable numbers.
std::size_t message_bytes(CollKind kind, const CollArgs& args,
                          int comm_size) noexcept {
  const auto p = static_cast<std::size_t>(comm_size);
  switch (kind) {
    case CollKind::kBarrier: return 0;
    case CollKind::kBcast: return args.recv.size();
    case CollKind::kScatter: return args.recv.size() * p;
    case CollKind::kGather: return args.send.size() * p;
    default: return args.send.size();
  }
}

}  // namespace

TopoView make_topo_view(const Group& group, const simnet::Topology& topo) {
  TopoView view;
  std::map<int, int> per_node;
  for (const int w : group.members()) ++per_node[topo.node_of(w)];
  if (!per_node.empty()) {
    view.node_count = static_cast<int>(per_node.size());
    view.max_node_ranks = 1;
    for (const auto& [node, n] : per_node) {
      view.max_node_ranks = std::max(view.max_node_ranks, n);
    }
  }
  return view;
}

void apply_coll_options(CollTuning& tuning, const Options& options) {
  for (int k = 0; k < kNumCollKinds; ++k) {
    const auto kind = static_cast<CollKind>(k);
    const std::string key = std::string("coll-") + coll_name(kind);
    const std::string value = options.get(key, "");
    if (value.empty()) continue;
    MANATEE_REQUIRE(Registry::instance().find(kind, value) != nullptr,
                    "unknown algorithm '" + value + "' for --" + key);
    tuning.force(kind, value);
  }
  tuning.large_message_bytes = static_cast<std::size_t>(options.get_int(
      "coll-large-message-bytes",
      static_cast<std::int64_t>(tuning.large_message_bytes)));
  tuning.small_comm_size = static_cast<int>(
      options.get_int("coll-small-comm-size", tuning.small_comm_size));
}

CollTuning tuning_from_options(const Options& options) {
  CollTuning tuning;
  apply_coll_options(tuning, options);
  return tuning;
}

CollModule::CollModule(CollTuning tuning, int comm_size)
    : CollModule(std::move(tuning), comm_size, TopoView{}) {}

CollModule::CollModule(CollTuning tuning, int comm_size, TopoView view)
    : tuning_(std::move(tuning)), comm_size_(comm_size), view_(view) {
  MANATEE_REQUIRE(comm_size >= 1, "collective module on an empty communicator");
}

const AlgoEntry& CollModule::pick(CollKind kind, const char* name,
                                  const CollArgs& args) const {
  const AlgoEntry* entry = Registry::instance().find(kind, name);
  MANATEE_CHECK(entry != nullptr, std::string("collective algorithm not registered: ") +
                                      coll_name(kind) + "/" + name);
  MANATEE_CHECK(entry->usable(comm_size_, args),
                std::string("heuristic picked inapplicable algorithm: ") +
                    coll_name(kind) + "/" + name);
  return *entry;
}

const AlgoEntry& CollModule::select(CollKind kind, const CollArgs& args,
                                    bool honor_forced) const {
  const std::string& forced = tuning_.forced_for(kind);
  if (honor_forced && !forced.empty()) {
    const AlgoEntry* entry = Registry::instance().find(kind, forced);
    if (entry == nullptr) {
      throw UsageError(std::string("unknown algorithm '") + forced + "' for " +
                       coll_name(kind));
    }
    if (!entry->usable(comm_size_, args)) {
      throw UsageError(std::string("algorithm '") + forced + "' for " +
                       coll_name(kind) + " is not applicable here (comm size " +
                       std::to_string(comm_size_) + ")");
    }
    return *entry;
  }
  return pick(kind, decide(kind, args), args);
}

/// The decision heuristic, in the spirit of Open MPI's tuned decision
/// functions: logarithmic algorithms for latency-bound instances, flat
/// linear ones at tiny scale, pipelined/ring ones once bandwidth dominates.
const char* CollModule::decide(CollKind kind, const CollArgs& args) const {
  const int p = comm_size_;
  const std::size_t bytes = message_bytes(kind, args, p);
  const bool small_comm = p <= tuning_.small_comm_size;
  const bool large_msg = bytes >= tuning_.large_message_bytes;
  const bool hier = view_.hierarchical(p);

  // Thresholds are calibrated against bench_coll_algorithms on the default
  // cost model: sends are eager (concurrent fan-out is cheap), and no
  // algorithm segments its payload, so un-pipelined chain/ring variants
  // only win where they move asymptotically less data (large allreduce).
  // When the communicator spans several nodes the hierarchical variants
  // win by keeping all but one message per node off the inter-node links.
  switch (kind) {
    case CollKind::kBarrier:
      if (hier) return "hier";
      // Dissemination needs ceil(log2 p) rounds vs the tree's 2·log2 p;
      // with no payload the trade-off never favors the tree, which stays
      // available as an explicit override.
      return "dissemination";
    case CollKind::kBcast:
      if (hier) return "hier";
      // Eager sends make the root's flat fan-out cheap; the binomial tree
      // only pays off once the root's send loop exceeds tree depth costs
      // (crossover between 32 and 64 ranks on the default model).
      return p <= 32 ? "linear" : "binomial";
    case CollKind::kReduce:
      if (hier) return "hier";
      // At large sizes the root folding p-1 concurrently arriving streams
      // beats log2(p) serialized full-vector tree steps.
      return large_msg ? "linear" : "binomial";
    case CollKind::kAllreduce:
      if (p <= 2) return "linear";
      if (hier) return "hier";
      // Ring moves 2·(p-1)/p of the vector per rank regardless of p —
      // bandwidth-optimal once the payload dominates round latency.
      if (large_msg) return "ring";
      return "rdoubling";
    case CollKind::kGather:
    case CollKind::kScatter:
      // Root total volume (message_bytes already scales by p): past the
      // large threshold the root's flat loop over concurrently arriving /
      // eagerly injected per-peer blocks beats the tree's forwarding of
      // aggregated payloads through intermediate ranks.
      if (large_msg) return "linear";
      return small_comm ? "linear" : "binomial";
    case CollKind::kAllgather:
      // Recursive doubling resends already-gathered regions each round, so
      // it only wins while the total gathered payload stays small.
      if (!small_comm && is_pow2(p) &&
          bytes * static_cast<std::size_t>(p) < tuning_.large_message_bytes) {
        return "rdoubling";
      }
      return "linear";
    case CollKind::kAlltoall:
      // Bruck trades log2(p) rounds against forwarding every block
      // ~log2(p)/2 times; it wins while the per-destination block is small.
      if (p > 2 && bytes < tuning_.large_message_bytes / 16) return "bruck";
      return "pairwise";
    case CollKind::kScan:
      return small_comm ? "linear" : "rdoubling";
    case CollKind::kReduceScatterBlock:
      return "direct";
    case CollKind::kGatherv:
      return "linear";
    case CollKind::kAllgatherv:
      return "linear";
    case CollKind::kAlltoallv:
      return "direct";
  }
  return "linear";
}

std::unique_ptr<NbcOp> make_op(const CommPtr& comm, CollKind kind,
                               const CollArgs& args, bool honor_forced) {
  MANATEE_REQUIRE(comm != nullptr, "collective on a null communicator");
  // Every communicator the Rank layer creates carries a module propagated
  // from its parent; reaching the fallback means a construction path forgot
  // to attach one, silently dropping the user's --coll-* tuning.
#ifndef NDEBUG
  MANATEE_CHECK(comm->coll_module != nullptr,
                "communicator has no collective module (tuning would be lost)");
#endif
  const AlgoEntry* entry = nullptr;
  if (comm->coll_module != nullptr) {
    entry = &comm->coll_module->select(kind, args, honor_forced);
  } else {
    const CollModule fallback(CollTuning{}, comm->size());
    entry = &fallback.select(kind, args, honor_forced);
  }
  const int tag = static_cast<int>(comm->coll_seq++);
  return entry->make(comm, tag, args);
}

}  // namespace manatee::umpi::coll
