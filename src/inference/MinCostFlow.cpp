//===- inference/MinCostFlow.cpp - Min-cost circulation ---------------------===//

#include "inference/MinCostFlow.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

namespace csspgo {

int MinCostFlowSolver::addNode() {
  Adj.emplace_back();
  return NumNodes++;
}

int MinCostFlowSolver::addEdge(int From, int To, int64_t Cap, int64_t Cost) {
  assert(From >= 0 && From < NumNodes && To >= 0 && To < NumNodes);
  Arc Fwd;
  Fwd.To = To;
  Fwd.Cap = Cap;
  Fwd.Cost = Cost;
  // A self-loop puts both arcs into one list, the reverse arc second.
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

// Successive shortest paths (see DESIGN.md, "Profile inference"): after
// the negative arcs are saturated every residual cost is non-negative, and
// each round moves excess to the nearest deficit node by multi-source
// Dijkstra on reduced costs. The total excess strictly drops every round.
void MinCostFlowSolver::solve() {
  std::vector<int64_t> Excess(NumNodes, 0);
  auto Push = [&](int U, Arc &E, int64_t Amount) {
    E.Cap -= Amount;
    Adj[E.To][E.Rev].Cap += Amount;
    Excess[U] -= Amount;
    Excess[E.To] += Amount;
  };
  for (int U = 0; U != NumNodes; ++U)
    for (Arc &E : Adj[U])
      if (E.Cost < 0 && E.Cap > 0)
        Push(U, E, E.Cap);

  constexpr int64_t Inf = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> Pi(NumNodes, 0), Dist(NumNodes);
  std::vector<std::pair<int, int>> Parent(NumNodes); // (node, arc index)
  std::vector<char> Settled(NumNodes);
  // Min-heap of (distance, node): ties settle the lowest node id first.
  std::vector<std::pair<int64_t, int>> Heap;
  auto HeapPush = [&](int64_t D, int V) {
    Heap.emplace_back(D, V);
    std::push_heap(Heap.begin(), Heap.end(), std::greater<>());
  };
  for (;;) {
    std::fill(Dist.begin(), Dist.end(), Inf);
    std::fill(Settled.begin(), Settled.end(), 0);
    Heap.clear();
    for (int V = 0; V != NumNodes; ++V)
      if (Excess[V] > 0) {
        Dist[V] = 0;
        Parent[V] = {-1, -1};
        HeapPush(0, V);
      }
    if (Heap.empty())
      return; // Balanced, no negative residual cost: optimal.

    int Sink = -1;
    while (!Heap.empty()) {
      std::pop_heap(Heap.begin(), Heap.end(), std::greater<>());
      auto [D, U] = Heap.back();
      Heap.pop_back();
      if (Settled[U] || D != Dist[U])
        continue;
      Settled[U] = 1;
      if (Excess[U] < 0) {
        Sink = U;
        break;
      }
      for (int A = 0; A != static_cast<int>(Adj[U].size()); ++A) {
        const Arc &E = Adj[U][A];
        int64_t Reduced = E.Cost + Pi[U] - Pi[E.To];
        assert((E.Cap <= 0 || Reduced >= 0) && "negative reduced cost");
        if (E.Cap > 0 && !Settled[E.To] && D + Reduced < Dist[E.To]) {
          Dist[E.To] = D + Reduced;
          Parent[E.To] = {U, A};
          HeapPush(Dist[E.To], E.To);
        }
      }
    }
    // Undoing the pseudo-flow routes every excess, so a deficit is
    // always reachable.
    assert(Sink >= 0 && "excess with no reachable deficit");
    if (Sink < 0)
      return;

    // Pi += min(Dist, Dist[Sink]), shifted so only settled nodes move.
    for (int V = 0; V != NumNodes; ++V)
      if (Settled[V])
        Pi[V] += Dist[V] - Dist[Sink];

    int64_t Amount = -Excess[Sink];
    int Source = Sink;
    for (; Parent[Source].first >= 0; Source = Parent[Source].first)
      Amount = std::min(
          Amount, Adj[Parent[Source].first][Parent[Source].second].Cap);
    Amount = std::min(Amount, Excess[Source]);
    for (int V = Sink; V != Source; V = Parent[V].first)
      Push(Parent[V].first, Adj[Parent[V].first][Parent[V].second], Amount);
  }
}

int64_t MinCostFlowSolver::flowOn(int EdgeId) const {
  auto [U, A] = EdgeIndex[static_cast<size_t>(EdgeId)];
  return OrigCap[static_cast<size_t>(EdgeId)] - Adj[U][A].Cap;
}

MinCostFlowSolver::Edge MinCostFlowSolver::edge(int EdgeId) const {
  auto [U, A] = EdgeIndex[static_cast<size_t>(EdgeId)];
  const Arc &E = Adj[U][A];
  return {U, E.To, OrigCap[static_cast<size_t>(EdgeId)], E.Cost};
}

} // namespace csspgo
