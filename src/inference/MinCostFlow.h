//===- inference/MinCostFlow.h - Min-cost circulation ------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimum-cost circulation solver (successive shortest paths with
/// Dijkstra on reduced costs) — the algorithmic core of profile inference
/// in the style of Levin et al. [9] and profi [10]: raw sample counts are
/// smoothed into a flow-consistent profile by finding the cheapest
/// circulation in a network that rewards matching the measured counts.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_INFERENCE_MINCOSTFLOW_H
#define CSSPGO_INFERENCE_MINCOSTFLOW_H

#include <cstdint>
#include <vector>

namespace csspgo {

class MinCostFlowSolver {
public:
  /// Adds a node; returns its id.
  int addNode();

  /// Adds a directed edge with capacity \p Cap and per-unit cost \p Cost.
  /// Returns an edge id usable with flowOn(). Negative-cost edges must
  /// have a finite capacity (otherwise the optimum is unbounded).
  int addEdge(int From, int To, int64_t Cap, int64_t Cost);

  /// Computes a minimum-cost circulation: saturates every negative-cost
  /// edge, then routes the resulting node imbalances back along shortest
  /// residual paths until every node is balanced. The result is optimal
  /// and deterministic (ties go to the lowest node id).
  void solve();

  /// Flow pushed through edge \p EdgeId after solve().
  int64_t flowOn(int EdgeId) const;

  int numNodes() const { return NumNodes; }
  int numEdges() const { return static_cast<int>(EdgeIndex.size()); }

  /// Edge \p EdgeId as it was added (original capacity, not residual).
  struct Edge {
    int From, To;
    int64_t Cap, Cost;
  };
  Edge edge(int EdgeId) const;

private:
  struct Arc {
    int To = 0;
    int64_t Cap = 0; ///< Residual capacity.
    int64_t Cost = 0;
    int Rev = 0; ///< Index of the reverse arc in Adj[To].
  };

  int NumNodes = 0;
  /// Adjacency: per node, list of arcs.
  std::vector<std::vector<Arc>> Adj;
  /// Mapping from public edge id to (node, arc index).
  std::vector<std::pair<int, int>> EdgeIndex;
  /// Original capacity per public edge (to compute flow).
  std::vector<int64_t> OrigCap;
};

} // namespace csspgo

#endif // CSSPGO_INFERENCE_MINCOSTFLOW_H
