#include "graph/frame_graph.hpp"

#include <utility>

#include "common/error.hpp"

namespace tvbf::graph {

NodeId FrameGraph::add(std::string name, std::vector<NodeId> deps,
                       std::function<Status()> fn) {
  TVBF_REQUIRE(static_cast<bool>(fn), "graph node '" + name + "' needs a body");
  const NodeId id = nodes_.size();
  for (const NodeId dep : deps) {
    TVBF_REQUIRE(dep < id, "graph node '" + name +
                               "' depends on node " + std::to_string(dep) +
                               " which has not been added yet");
  }
  Node node;
  node.name = std::move(name);
  node.fn = std::move(fn);
  node.deps = std::move(deps);
  for (const NodeId dep : node.deps) nodes_[dep].successors.push_back(id);
  nodes_.push_back(std::move(node));
  return id;
}

const FrameGraph::Node& FrameGraph::node(NodeId id) const {
  TVBF_REQUIRE(id < nodes_.size(),
               "node id " + std::to_string(id) + " out of range");
  return nodes_[id];
}

const std::string& FrameGraph::name(NodeId id) const { return node(id).name; }

const std::vector<NodeId>& FrameGraph::dependencies(NodeId id) const {
  return node(id).deps;
}

const std::vector<NodeId>& FrameGraph::successors(NodeId id) const {
  return node(id).successors;
}

}  // namespace tvbf::graph
