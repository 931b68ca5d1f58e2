//===- inference/ProfileInference.cpp - Profile inference -------------------===//

#include "inference/ProfileInference.h"

#include <algorithm>
#include <map>

namespace csspgo {

namespace {
constexpr int64_t InfCap = int64_t(1) << 40;
} // namespace

MinCostFlowSolver buildInferenceNetwork(const Function &F,
                                        const InferenceOptions &Opts) {
  MinCostFlowSolver Solver;
  size_t N = F.Blocks.size();
  std::vector<std::pair<const BasicBlock *, int>> InNode(N);
  for (size_t I = 0; I != N; ++I) {
    Solver.addNode();
    Solver.addNode();
    InNode[I] = {F.Blocks[I].get(), 2 * static_cast<int>(I)};
  }
  std::sort(InNode.begin(), InNode.end());

  // Block arcs: reward matching the measured count, penalize exceeding it.
  for (size_t I = 0; I != N; ++I) {
    const BasicBlock *B = F.Blocks[I].get();
    int In = 2 * static_cast<int>(I), Out = In + 1;
    uint64_t W = B->HasCount ? B->Count : 0;
    if (W > 0)
      Solver.addEdge(In, Out, static_cast<int64_t>(W), -Opts.MatchReward);
    Solver.addEdge(In, Out, InfCap,
                   W > 0 ? Opts.ExceedPenalty : Opts.UnknownPenalty);
  }

  // CFG arcs, then the circulation closure: exits feed back into the entry.
  for (size_t I = 0; I != N; ++I)
    for (const BasicBlock *S : F.Blocks[I]->successors()) {
      auto It = std::lower_bound(InNode.begin(), InNode.end(),
                                 std::make_pair(S, 0));
      Solver.addEdge(2 * static_cast<int>(I) + 1, It->second, InfCap, 0);
    }
  for (size_t I = 0; I != N; ++I)
    if (F.Blocks[I]->numSuccessors() == 0)
      Solver.addEdge(2 * static_cast<int>(I) + 1, 0, InfCap, 0);
  return Solver;
}

void inferFunctionProfile(Function &F, const InferenceOptions &Opts) {
  bool Any = false;
  for (auto &BB : F.Blocks)
    Any |= BB->HasCount && BB->Count > 0;
  if (!Any || F.Blocks.empty())
    return;

  MinCostFlowSolver Solver = buildInferenceNetwork(F, Opts);
  Solver.solve();

  // Read the inferred profile back, walking the edge ids in the order
  // buildInferenceNetwork added them.
  int Id = 0;
  for (auto &BB : F.Blocks) {
    int64_t Flow = Solver.flowOn(Id++);
    if (BB->HasCount && BB->Count > 0) // A counted block has two arcs.
      Flow += Solver.flowOn(Id++);
    BB->setCount(static_cast<uint64_t>(Flow));
  }
  for (auto &BB : F.Blocks) {
    BB->SuccWeights.clear();
    for (unsigned S = 0, NS = BB->numSuccessors(); S != NS; ++S)
      BB->SuccWeights.push_back(static_cast<uint64_t>(Solver.flowOn(Id++)));
  }
}

void inferModuleProfile(Module &M, const InferenceOptions &Opts) {
  for (auto &F : M.Functions)
    inferFunctionProfile(*F, Opts);
}

bool isProfileConsistent(const Function &F, uint64_t Tolerance) {
  std::map<const BasicBlock *, uint64_t> InFlow;
  for (auto &BB : F.Blocks) {
    auto Succs = BB->successors();
    uint64_t Out = 0;
    for (unsigned S = 0; S != Succs.size(); ++S) {
      uint64_t W = S < BB->SuccWeights.size() ? BB->SuccWeights[S] : 0;
      InFlow[Succs[S]] += W;
      Out += W;
    }
    if (!Succs.empty()) {
      uint64_t Diff = Out > BB->Count ? Out - BB->Count : BB->Count - Out;
      if (Diff > Tolerance)
        return false;
    }
  }
  for (auto &BB : F.Blocks) {
    if (BB.get() == F.getEntry())
      continue;
    uint64_t In = InFlow[BB.get()];
    uint64_t Diff = In > BB->Count ? In - BB->Count : BB->Count - In;
    if (Diff > Tolerance)
      return false;
  }
  return true;
}

} // namespace csspgo
