#include "simnet/topology.hpp"

#include <cstdlib>

namespace manatee::simnet {

const char* topo_kind_name(TopoKind kind) noexcept {
  switch (kind) {
    case TopoKind::kFlat: return "flat";
    case TopoKind::kFatTree: return "fattree";
    case TopoKind::kDragonfly: return "dragonfly";
  }
  return "?";
}

TopoSpec parse_topo_spec(const std::string& text) {
  TopoSpec spec;
  const std::size_t colon = text.find(':');
  const std::string shape = text.substr(0, colon);
  if (shape == "flat" || shape.empty()) {
    spec.kind = TopoKind::kFlat;
  } else if (shape == "fattree") {
    spec.kind = TopoKind::kFatTree;
  } else if (shape == "dragonfly") {
    spec.kind = TopoKind::kDragonfly;
  } else {
    throw UsageError("unknown topology shape '" + shape +
                     "' (flat|fattree|dragonfly)");
  }
  if (colon == std::string::npos) return spec;

  std::string params = text.substr(colon + 1);
  std::size_t pos = 0;
  while (pos < params.size()) {
    std::size_t comma = params.find(',', pos);
    if (comma == std::string::npos) comma = params.size();
    const std::string kv = params.substr(pos, comma - pos);
    pos = comma + 1;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    MANATEE_REQUIRE(eq != std::string::npos,
                    "topology parameter '" + kv + "' needs key=value");
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    if (key == "rpn") {
      spec.ranks_per_node = std::atoi(value.c_str());
    } else if (key == "rails") {
      spec.rails = std::atoi(value.c_str());
    } else if (key == "group") {
      spec.nodes_per_group = std::atoi(value.c_str());
    } else if (key == "oversub") {
      spec.oversubscription = std::atof(value.c_str());
    } else {
      throw UsageError("unknown topology parameter '" + key + "'");
    }
  }
  return spec;
}

std::string Topology::describe() const {
  std::string out = std::to_string(world_size_) + " ranks over " +
                    std::to_string(node_count()) + " node(s), " +
                    std::to_string(spec_.ranks_per_node) + " ranks/node, " +
                    topo_kind_name(spec_.kind);
  if (spec_.rails > 1) out += ", " + std::to_string(spec_.rails) + " rails";
  if (spec_.nodes_per_group > 0) {
    out += ", " + std::to_string(spec_.nodes_per_group) + " nodes/group";
  }
  if (spec_.kind == TopoKind::kFatTree && spec_.oversubscription > 1.0) {
    out += ", " + std::to_string(spec_.oversubscription) + ":1 oversubscribed";
  }
  return out;
}

}  // namespace manatee::simnet
