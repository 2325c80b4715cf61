// Frame graphs: one frame's work expressed as a DAG of stage nodes.
//
// A FrameGraph holds named nodes (ToF-apply per steering angle, compound,
// beamform, postprocess, ...) connected by dependency edges. Nodes are added
// with their dependencies, which must already exist — so a FrameGraph is
// acyclic by construction and insertion order is a valid topological order.
// The graph owns only structure and callbacks; per-launch readiness state
// (pending dependency counts) lives in the Executor, which schedules every
// launched graph's ready nodes across one shared worker set. The same graph
// object is relaunched frame after frame — node callbacks read the stream's
// current frame through stable storage owned by the caller.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace tvbf::graph {

/// Index of a node within its FrameGraph.
using NodeId = std::size_t;

/// What a node body reports back to the scheduler.
enum class Status {
  /// The node's work is complete; successors may become ready.
  kDone,
  /// Completion will be signalled later through Executor::resolve — used by
  /// gate nodes (e.g. cross-session inference batching) whose readiness
  /// depends on state outside this graph.
  kDeferred,
};

/// A DAG of stage nodes for one frame of one stream.
class FrameGraph {
 public:
  /// Adds a node that runs `fn` once every dependency has completed.
  /// Dependencies must name already-added nodes (throws InvalidArgument
  /// otherwise), which makes cycles impossible by construction.
  NodeId add(std::string name, std::vector<NodeId> deps,
             std::function<Status()> fn);

  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const std::string& name(NodeId id) const;
  const std::vector<NodeId>& dependencies(NodeId id) const;
  const std::vector<NodeId>& successors(NodeId id) const;

  /// Drops every node (so a stream whose shape changed — e.g. a different
  /// steering-angle count — can rebuild in place).
  void clear() { nodes_.clear(); }

 private:
  friend class Executor;

  struct Node {
    std::string name;
    std::function<Status()> fn;
    std::vector<NodeId> deps;
    std::vector<NodeId> successors;
  };

  const Node& node(NodeId id) const;

  std::vector<Node> nodes_;
};

}  // namespace tvbf::graph
