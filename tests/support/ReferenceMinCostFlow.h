//===- tests/support/ReferenceMinCostFlow.h - MCF oracle ---------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference minimum-cost circulation solver for differential testing:
/// negative-cycle canceling with Bellman-Ford, an algorithm independent of
/// the production solver's (inference/MinCostFlow, successive shortest
/// paths). It is slow (one O(V*E) pass per canceled cycle) and simple, so
/// its optimal cost is the yardstick the production solver's cost must
/// equal. Only tests and the fuzz harness link it.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_TESTS_SUPPORT_REFERENCEMINCOSTFLOW_H
#define CSSPGO_TESTS_SUPPORT_REFERENCEMINCOSTFLOW_H

#include "inference/MinCostFlow.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace csspgo {

class ReferenceMinCostFlowSolver {
public:
  int addNode();
  int addEdge(int From, int To, int64_t Cap, int64_t Cost);

  /// Cancels negative residual cycles until none is left. Each cancel
  /// lowers the integer cost, so this ends at the optimum.
  void solve();

  int64_t flowOn(int EdgeId) const;

private:
  struct Arc {
    int To = 0;
    int64_t Cap = 0; ///< Residual capacity.
    int64_t Cost = 0;
    int Rev = 0; ///< Index of the reverse arc in Adj[To].
  };

  /// Finds a negative cycle in the residual graph; returns its arcs as
  /// (node, arc index) pairs, empty if none.
  std::vector<std::pair<int, int>> findNegativeCycle() const;

  int NumNodes = 0;
  std::vector<std::vector<Arc>> Adj;
  std::vector<std::pair<int, int>> EdgeIndex;
  std::vector<int64_t> OrigCap;
};

/// Solves an unsolved copy of \p Network with both MinCostFlowSolver and
/// the reference. Returns an empty string when the production flow is a
/// feasible circulation (0 <= flow <= capacity on every edge, inflow ==
/// outflow at every node) of the reference's optimal cost; a diagnostic
/// otherwise.
std::string crossCheckMinCostFlow(const MinCostFlowSolver &Network);

} // namespace csspgo

#endif // CSSPGO_TESTS_SUPPORT_REFERENCEMINCOSTFLOW_H
