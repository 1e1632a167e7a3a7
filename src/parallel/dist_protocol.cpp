#include "parallel/dist_protocol.hpp"

#include <cmath>

namespace optsched::par {

using util::Json;

namespace {

std::uint32_t as_u32(const Json& j, const char* what) {
  const double v = j.as_number();
  OPTSCHED_REQUIRE(v >= 0 && v == std::floor(v) && v <= 0xffffffffu,
                   std::string(what) + " must be a non-negative integer");
  return static_cast<std::uint32_t>(v);
}

}  // namespace

Json graph_to_json(const dag::TaskGraph& graph) {
  Json weights{Json::Array{}};
  for (dag::NodeId n = 0; n < graph.num_nodes(); ++n)
    weights.push_back(graph.weight(n));
  Json edges{Json::Array{}};
  for (dag::NodeId n = 0; n < graph.num_nodes(); ++n)
    for (const auto& [child, cost] : graph.children(n))
      edges.push_back(Json(Json::Array{Json(n), Json(child), Json(cost)}));
  Json out;
  out["w"] = std::move(weights);
  out["e"] = std::move(edges);
  return out;
}

dag::TaskGraph graph_from_json(const Json& j) {
  dag::TaskGraph graph;
  for (const auto& w : j.at("w").as_array()) graph.add_node(w.as_number());
  for (const auto& e : j.at("e").as_array()) {
    const auto& triple = e.as_array();
    OPTSCHED_REQUIRE(triple.size() == 3, "edge must be [src, dst, cost]");
    graph.add_edge(as_u32(triple[0], "edge src"), as_u32(triple[1], "edge dst"),
                   triple[2].as_number());
  }
  graph.finalize();
  return graph;
}

Json machine_to_json(const machine::Machine& machine) {
  Json adjacency{Json::Array{}};
  Json speeds{Json::Array{}};
  for (machine::ProcId p = 0; p < machine.num_procs(); ++p) {
    Json row{Json::Array{}};
    for (const machine::ProcId q : machine.neighbors(p)) row.push_back(q);
    adjacency.push_back(std::move(row));
    speeds.push_back(machine.speed(p));
  }
  Json out;
  out["adj"] = std::move(adjacency);
  out["speed"] = std::move(speeds);
  out["name"] = machine.topology_name();
  return out;
}

machine::Machine machine_from_json(const Json& j) {
  std::vector<std::vector<machine::ProcId>> adjacency;
  for (const auto& row : j.at("adj").as_array()) {
    std::vector<machine::ProcId> neighbors;
    for (const auto& q : row.as_array())
      neighbors.push_back(static_cast<machine::ProcId>(as_u32(q, "neighbor")));
    adjacency.push_back(std::move(neighbors));
  }
  std::vector<double> speeds;
  for (const auto& s : j.at("speed").as_array())
    speeds.push_back(s.as_number());
  return machine::Machine(std::move(adjacency), std::move(speeds),
                          j.at("name").as_string());
}

Json search_config_to_json(const core::SearchConfig& config) {
  Json prune;
  prune["iso"] = config.prune.processor_isomorphism;
  prune["equiv"] = config.prune.node_equivalence;
  prune["ub"] = config.prune.upper_bound;
  prune["dup"] = config.prune.duplicate_detection;
  prune["strict"] = config.prune.strict_upper_bound;
  Json out;
  out["prune"] = std::move(prune);
  out["h"] = static_cast<int>(config.h);
  out["hw"] = config.h_weight;
  out["eps"] = config.epsilon;
  return out;
}

core::SearchConfig search_config_from_json(const Json& j) {
  core::SearchConfig config;
  const Json& prune = j.at("prune");
  config.prune.processor_isomorphism = prune.at("iso").as_bool();
  config.prune.node_equivalence = prune.at("equiv").as_bool();
  config.prune.upper_bound = prune.at("ub").as_bool();
  config.prune.duplicate_detection = prune.at("dup").as_bool();
  config.prune.strict_upper_bound = prune.at("strict").as_bool();
  const std::uint32_t h = as_u32(j.at("h"), "h function");
  OPTSCHED_REQUIRE(h <= static_cast<std::uint32_t>(core::HFunction::kComposite),
                   "unknown h function code");
  config.h = static_cast<core::HFunction>(h);
  config.h_weight = j.at("hw").as_number();
  config.epsilon = j.at("eps").as_number();
  return config;
}

Json assignments_to_json(
    const std::vector<std::pair<dag::NodeId, machine::ProcId>>& seq) {
  Json out{Json::Array{}};
  for (const auto& [node, proc] : seq)
    out.push_back(Json(Json::Array{Json(node), Json(proc)}));
  return out;
}

std::vector<std::pair<dag::NodeId, machine::ProcId>> assignments_from_json(
    const Json& j) {
  std::vector<std::pair<dag::NodeId, machine::ProcId>> seq;
  for (const auto& pair : j.as_array()) {
    const auto& np = pair.as_array();
    OPTSCHED_REQUIRE(np.size() == 2, "assignment must be [node, proc]");
    seq.emplace_back(as_u32(np[0], "node"),
                     static_cast<machine::ProcId>(as_u32(np[1], "proc")));
  }
  return seq;
}

}  // namespace optsched::par
