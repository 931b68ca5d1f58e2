//===- tests/support/ReferenceMinCostFlow.cpp - MCF oracle ------------------===//

#include "ReferenceMinCostFlow.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

namespace csspgo {

int ReferenceMinCostFlowSolver::addNode() {
  Adj.emplace_back();
  return NumNodes++;
}

int ReferenceMinCostFlowSolver::addEdge(int From, int To, int64_t Cap,
                                        int64_t Cost) {
  assert(From >= 0 && From < NumNodes && To >= 0 && To < NumNodes);
  Arc Fwd;
  Fwd.To = To;
  Fwd.Cap = Cap;
  Fwd.Cost = Cost;
  Fwd.Rev = static_cast<int>(Adj[To].size()) + (From == To ? 1 : 0);
  Arc Bwd;
  Bwd.To = From;
  Bwd.Cap = 0;
  Bwd.Cost = -Cost;
  Bwd.Rev = static_cast<int>(Adj[From].size());
  EdgeIndex.emplace_back(From, static_cast<int>(Adj[From].size()));
  Adj[From].push_back(Fwd);
  Adj[To].push_back(Bwd);
  OrigCap.push_back(Cap);
  return static_cast<int>(EdgeIndex.size()) - 1;
}

std::vector<std::pair<int, int>>
ReferenceMinCostFlowSolver::findNegativeCycle() const {
  std::vector<int64_t> Dist(NumNodes, 0); // All-zero start finds any cycle.
  std::vector<std::pair<int, int>> Parent(NumNodes, {-1, -1});

  int Updated = -1;
  for (int Iter = 0; Iter != NumNodes; ++Iter) {
    Updated = -1;
    for (int U = 0; U != NumNodes; ++U) {
      for (int A = 0; A != static_cast<int>(Adj[U].size()); ++A) {
        const Arc &E = Adj[U][A];
        if (E.Cap > 0 && Dist[U] + E.Cost < Dist[E.To]) {
          Dist[E.To] = Dist[U] + E.Cost;
          Parent[E.To] = {U, A};
          Updated = E.To;
        }
      }
    }
    if (Updated < 0)
      return {};
  }

  // A relaxation happened in the Nth round: a negative cycle exists. Walk
  // back N steps to land inside the cycle, then trace it.
  int X = Updated;
  for (int I = 0; I != NumNodes; ++I)
    X = Parent[X].first;
  std::vector<std::pair<int, int>> Cycle;
  int Cur = X;
  do {
    auto [PU, PA] = Parent[Cur];
    assert(PU >= 0 && "broken parent chain");
    Cycle.emplace_back(PU, PA);
    Cur = PU;
  } while (Cur != X);
  return Cycle;
}

void ReferenceMinCostFlowSolver::solve() {
  for (auto Cycle = findNegativeCycle(); !Cycle.empty();
       Cycle = findNegativeCycle()) {
    int64_t Bottleneck = std::numeric_limits<int64_t>::max();
    for (auto [U, A] : Cycle)
      Bottleneck = std::min(Bottleneck, Adj[U][A].Cap);
    for (auto [U, A] : Cycle) {
      Arc &E = Adj[U][A];
      E.Cap -= Bottleneck;
      Adj[E.To][E.Rev].Cap += Bottleneck;
    }
  }
}

int64_t ReferenceMinCostFlowSolver::flowOn(int EdgeId) const {
  auto [U, A] = EdgeIndex[static_cast<size_t>(EdgeId)];
  return OrigCap[static_cast<size_t>(EdgeId)] - Adj[U][A].Cap;
}

std::string crossCheckMinCostFlow(const MinCostFlowSolver &Network) {
  MinCostFlowSolver Fast;
  ReferenceMinCostFlowSolver Ref;
  for (int V = 0; V != Network.numNodes(); ++V) {
    Fast.addNode();
    Ref.addNode();
  }
  for (int Id = 0; Id != Network.numEdges(); ++Id) {
    MinCostFlowSolver::Edge E = Network.edge(Id);
    Fast.addEdge(E.From, E.To, E.Cap, E.Cost);
    Ref.addEdge(E.From, E.To, E.Cap, E.Cost);
  }
  Fast.solve();
  Ref.solve();

  std::ostringstream OS;
  std::vector<int64_t> Balance(static_cast<size_t>(Network.numNodes()), 0);
  int64_t FastCost = 0, RefCost = 0;
  for (int Id = 0; Id != Network.numEdges(); ++Id) {
    MinCostFlowSolver::Edge E = Network.edge(Id);
    int64_t F = Fast.flowOn(Id);
    if (F < 0 || F > E.Cap) {
      OS << "edge " << Id << " (" << E.From << "->" << E.To << ") carries "
         << F << " outside [0, " << E.Cap << "]";
      return OS.str();
    }
    Balance[static_cast<size_t>(E.From)] -= F;
    Balance[static_cast<size_t>(E.To)] += F;
    FastCost += F * E.Cost;
    RefCost += Ref.flowOn(Id) * E.Cost;
  }
  for (size_t V = 0; V != Balance.size(); ++V)
    if (Balance[V] != 0) {
      OS << "node " << V << " is off balance by " << Balance[V];
      return OS.str();
    }
  if (FastCost != RefCost) {
    OS << "cost " << FastCost << " differs from the reference optimum "
       << RefCost << " (" << Network.numNodes() << " nodes, "
       << Network.numEdges() << " edges)";
    return OS.str();
  }
  return {};
}

} // namespace csspgo
