// module.hpp — per-communicator collective-algorithm selection.
//
// A CollModule owns the decision function: given a collective kind and its
// arguments, pick a registered algorithm. Selection is a pure function of
// (tuning, communicator size, message size) — all identical across the
// members of a communicator — so every rank independently picks the same
// algorithm without any extra agreement traffic. Forced overrides come from
// CollTuning, fed either programmatically (RuntimeConfig/EngineConfig) or
// from the command line (`--coll-bcast=ring`, see tuning_from_options).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>

#include "umpi/coll/coll.hpp"

namespace manatee {
class Options;
}

namespace manatee::simnet {
class Topology;
}

namespace manatee::umpi {
class Group;
}

namespace manatee::umpi::coll {

/// User-facing tuning knobs for the selection heuristic.
struct CollTuning {
  /// Forced algorithm name per collective kind; empty string = heuristic.
  std::array<std::string, kNumCollKinds> forced{};

  /// Below this payload (bytes), latency-optimal (logarithmic) algorithms
  /// are preferred; above it, bandwidth-optimal ones. Calibrated with
  /// bench_coll_algorithms against the default cost model.
  std::size_t large_message_bytes = 256 * 1024;

  /// Communicators at or below this size prefer the flat linear algorithms
  /// (fewer total messages beat shallower trees at tiny scale).
  int small_comm_size = 4;

  void force(CollKind kind, std::string algorithm) {
    forced[static_cast<std::size_t>(kind)] = std::move(algorithm);
  }
  [[nodiscard]] const std::string& forced_for(CollKind kind) const noexcept {
    return forced[static_cast<std::size_t>(kind)];
  }
};

/// Parse `--coll-<collective>=<algorithm>` (e.g. --coll-bcast=ring,
/// --coll-allreduce=rdoubling) plus `--coll-large-message-bytes` and
/// `--coll-small-comm-size` into `tuning`. Unknown algorithm names throw
/// UsageError immediately (fail fast, before any communication).
void apply_coll_options(CollTuning& tuning, const Options& options);

[[nodiscard]] CollTuning tuning_from_options(const Options& options);

/// What the decision heuristic knows about a communicator's placement on
/// the cluster: computed once at communicator creation from the group's
/// world ranks and the job topology — both identical on every member, so
/// selection stays a pure agreement-free function.
struct TopoView {
  int node_count = 1;      ///< distinct nodes spanned by the members
  int max_node_ranks = 1;  ///< largest member count on one node

  /// True when hierarchical algorithms have structure to exploit: members
  /// span several nodes and at least one node holds more than one.
  [[nodiscard]] bool hierarchical(int comm_size) const noexcept {
    return node_count > 1 && comm_size > node_count;
  }
};

/// TopoView of `group` on `topo` (see above).
[[nodiscard]] TopoView make_topo_view(const Group& group,
                                      const simnet::Topology& topo);

class CollModule {
 public:
  /// Single-node view: topology-blind selection (tests, default fallback).
  CollModule(CollTuning tuning, int comm_size);
  CollModule(CollTuning tuning, int comm_size, TopoView view);

  /// Chooses the algorithm for one collective instance. Honors the forced
  /// override when set (throwing UsageError if the forced algorithm is
  /// unknown or inapplicable to this instance), otherwise applies the
  /// decision heuristic. `honor_forced = false` skips the override and
  /// always uses the heuristic — for internal bookkeeping collectives
  /// (context-id agreement, comm_split exchange) that must never fail on a
  /// user's tuning choice.
  [[nodiscard]] const AlgoEntry& select(CollKind kind, const CollArgs& args,
                                        bool honor_forced = true) const;

  [[nodiscard]] const CollTuning& tuning() const noexcept { return tuning_; }
  [[nodiscard]] int comm_size() const noexcept { return comm_size_; }
  [[nodiscard]] const TopoView& topo_view() const noexcept { return view_; }

 private:
  [[nodiscard]] const AlgoEntry& pick(CollKind kind, const char* name,
                                      const CollArgs& args) const;
  [[nodiscard]] const char* decide(CollKind kind, const CollArgs& args) const;

  CollTuning tuning_;
  int comm_size_;
  TopoView view_;
};

using CollModulePtr = std::shared_ptr<const CollModule>;

/// Builds the NbcOp for one collective instance on `comm`: selects the
/// algorithm through the communicator's CollModule and consumes one
/// collective sequence number for the operation's message tag. Every
/// communicator the Rank layer creates carries a module propagated from
/// its parent (tuning + topology view); a null module is a wiring bug —
/// loud in debug builds, default-tuned fallback in release.
std::unique_ptr<NbcOp> make_op(const CommPtr& comm, CollKind kind,
                               const CollArgs& args, bool honor_forced = true);

}  // namespace manatee::umpi::coll
