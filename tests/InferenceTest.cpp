//===- tests/InferenceTest.cpp - profile inference tests --------*- C++ -*-===//

#include "inference/MinCostFlow.h"
#include "inference/ProfileInference.h"
#include "opt/Inliner.h"
#include "pgo/PGODriver.h"
#include "pgo/ProfilePipeline.h"
#include "probe/ProbeInserter.h"
#include "support/Random.h"
#include "workload/Workloads.h"

#include "ReferenceMinCostFlow.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace csspgo;
using namespace csspgo::testing;

TEST(MinCostFlow, FindsRewardingCirculation) {
  // Triangle a->b->c->a with one rewarded edge of capacity 10.
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode(), C = S.addNode();
  int Rewarded = S.addEdge(A, B, 10, -5);
  S.addEdge(B, C, 100, 1);
  S.addEdge(C, A, 100, 1);
  S.solve();
  EXPECT_EQ(S.flowOn(Rewarded), 10);
}

TEST(MinCostFlow, NoNegativeCycleNoFlow) {
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode();
  int E1 = S.addEdge(A, B, 10, 1);
  int E2 = S.addEdge(B, A, 10, 1);
  S.solve();
  EXPECT_EQ(S.flowOn(E1), 0);
  EXPECT_EQ(S.flowOn(E2), 0);
}

TEST(MinCostFlow, PicksCheaperOfTwoPaths) {
  // a->b reward; two return paths b->a with costs 1 and 3.
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode();
  S.addEdge(A, B, 10, -10);
  int Cheap = S.addEdge(B, A, 6, 1);
  int Pricey = S.addEdge(B, A, 10, 3);
  S.solve();
  EXPECT_EQ(S.flowOn(Cheap), 6);
  EXPECT_EQ(S.flowOn(Pricey), 4);
}

TEST(Inference, MakesDiamondConsistent) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  // Inconsistent raw counts: entry 100, arms 60+70 (=130), join 90.
  F->Blocks[0]->setCount(100);
  F->Blocks[1]->setCount(60);
  F->Blocks[2]->setCount(70);
  F->Blocks[3]->setCount(90);
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 1));
  // Total arm flow equals entry flow.
  EXPECT_EQ(F->Blocks[1]->Count + F->Blocks[2]->Count, F->Blocks[0]->Count);
  EXPECT_EQ(F->Blocks[3]->Count, F->Blocks[0]->Count);
}

TEST(Inference, DerivesEdgeWeights) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  F->Blocks[0]->setCount(100);
  F->Blocks[1]->setCount(90);
  F->Blocks[2]->setCount(10);
  F->Blocks[3]->setCount(100);
  inferFunctionProfile(*F);
  ASSERT_EQ(F->Blocks[0]->SuccWeights.size(), 2u);
  EXPECT_GT(F->Blocks[0]->SuccWeights[0], F->Blocks[0]->SuccWeights[1]);
}

TEST(Inference, LoopFlowsConserve) {
  Module M("m");
  Function *F = addLoopFunction(M, "f");
  F->Blocks[0]->setCount(10);   // entry
  F->Blocks[1]->setCount(1000); // header
  F->Blocks[2]->setCount(985);  // body (noisy)
  F->Blocks[3]->setCount(10);   // exit
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 1));
  // Header = entry + body backedge.
  EXPECT_EQ(F->Blocks[1]->Count,
            F->Blocks[0]->Count + F->Blocks[2]->Count);
}

TEST(Inference, ZeroProfileIsNoop) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  inferFunctionProfile(*F);
  EXPECT_FALSE(F->Blocks[0]->HasCount);
}

TEST(Inference, UnmeasuredBlocksReceiveFlow) {
  Module M("m");
  Function *F = addBranchyFunction(M, "f");
  F->Blocks[0]->setCount(100);
  F->Blocks[1]->setCount(100); // then
  // else and join unmeasured.
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 1));
  EXPECT_EQ(F->Blocks[3]->Count, 100u) << "join must carry the flow";
}

TEST(Inference, LargeFunctionConservesExactly) {
  // Functions of any size get min-cost-flow counts: a noisy 700-block
  // chain must come out exactly flow-consistent.
  constexpr int N = 700;
  Module M("m");
  Function *F = M.createFunction("big", 0);
  Builder B(F);
  std::vector<BasicBlock *> Chain;
  for (int I = 0; I != N; ++I)
    Chain.push_back(F->createBlock("c"));
  for (int I = 0; I != N; ++I) {
    B.setInsertBlock(Chain[I]);
    B.emitConst(I);
    if (I + 1 < N)
      B.emitBr(Chain[I + 1]);
    else
      B.emitRet(Operand::imm(0));
    Chain[I]->setCount(I % 7 == 0 ? 90 : 100);
  }
  inferFunctionProfile(*F);
  EXPECT_TRUE(isProfileConsistent(*F, 0));
  for (int I = 0; I != N; ++I)
    EXPECT_EQ(Chain[I]->Count, Chain[0]->Count);
  EXPECT_GE(Chain[0]->Count, 90u);
}

TEST(MinCostFlow, NegativeSelfLoopCarriesFullCapacity) {
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode();
  int Loop = S.addEdge(A, A, 7, -3);
  int Out = S.addEdge(A, B, 5, 1);
  int Back = S.addEdge(B, A, 5, 1);
  int Costly = S.addEdge(B, B, 9, 2);
  S.solve();
  EXPECT_EQ(S.flowOn(Loop), 7);
  EXPECT_EQ(S.flowOn(Out), 0);
  EXPECT_EQ(S.flowOn(Back), 0);
  EXPECT_EQ(S.flowOn(Costly), 0);
}

TEST(MinCostFlow, EdgesReportWhatWasAdded) {
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode();
  int E = S.addEdge(A, B, 4, -2);
  S.addEdge(B, A, 10, 1);
  S.solve();
  MinCostFlowSolver::Edge Added = S.edge(E);
  EXPECT_EQ(Added.From, A);
  EXPECT_EQ(Added.To, B);
  EXPECT_EQ(Added.Cap, 4);
  EXPECT_EQ(Added.Cost, -2);
  EXPECT_EQ(S.numEdges(), 2);
}

TEST(MinCostFlow, ResolvingIsIdempotent) {
  MinCostFlowSolver S;
  int A = S.addNode(), B = S.addNode(), C = S.addNode();
  int R = S.addEdge(A, B, 10, -5);
  int P1 = S.addEdge(B, C, 4, 1);
  int P2 = S.addEdge(B, A, 100, 3);
  int P3 = S.addEdge(C, A, 100, 1);
  S.solve();
  std::vector<int64_t> First = {S.flowOn(R), S.flowOn(P1), S.flowOn(P2),
                                S.flowOn(P3)};
  S.solve();
  EXPECT_EQ(First, (std::vector<int64_t>{S.flowOn(R), S.flowOn(P1),
                                         S.flowOn(P2), S.flowOn(P3)}));
  EXPECT_EQ(First, (std::vector<int64_t>{10, 4, 6, 4}));
}

// Differential property suite: the production solver against the
// cycle-canceling reference (tests/support/ReferenceMinCostFlow).

TEST(MinCostFlowOracle, RandomNetworksMatchReferenceOptimum) {
  constexpr int64_t InfCap = int64_t(1) << 40;
  for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
    Rng R(Seed * 0x9E3779B97F4A7C15ull);
    MinCostFlowSolver Net;
    int N = static_cast<int>(R.nextInRange(2, 60));
    for (int V = 0; V != N; ++V)
      Net.addNode();
    int M = static_cast<int>(R.nextInRange(1, 4 * N));
    for (int E = 0; E != M; ++E) {
      int From = static_cast<int>(R.nextBelow(N));
      int To = R.nextBool(0.05) ? From : static_cast<int>(R.nextBelow(N));
      int64_t Cost = R.nextInRange(-10, 10);
      // Only non-negative arcs may be unbounded (else no optimum).
      int64_t Cap = Cost >= 0 && R.nextBool(0.3) ? InfCap
                                                 : R.nextInRange(0, 30);
      Net.addEdge(From, To, Cap, Cost);
    }
    std::string Err = crossCheckMinCostFlow(Net);
    ASSERT_TRUE(Err.empty()) << "seed " << Seed << ": " << Err;
  }
}

TEST(MinCostFlowOracle, ProfiShapedNetworksMatchReferenceOptimum) {
  // Random CFGs with noisy counts, run through the inference network
  // builder: the shape every real network has.
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    Rng R(Seed);
    Module M("m");
    Function *F = M.createFunction("f", 0);
    Builder B(F);
    int N = static_cast<int>(R.nextInRange(1, 40));
    std::vector<BasicBlock *> Blocks;
    for (int I = 0; I != N; ++I)
      Blocks.push_back(F->createBlock("b"));
    for (int I = 0; I != N; ++I) {
      B.setInsertBlock(Blocks[I]);
      B.emitConst(I);
      uint64_t Roll = R.nextBelow(10);
      if (I + 1 == N || Roll == 0)
        B.emitRet(Operand::imm(0));
      else if (Roll < 5)
        B.emitBr(Blocks[R.nextBelow(N)]);
      else
        B.emitCondBr(Operand::imm(1), Blocks[R.nextBelow(N)],
                     Blocks[R.nextBelow(N)]);
      if (R.nextBool(0.7))
        Blocks[I]->setCount(R.nextBelow(1000));
    }
    InferenceOptions Opts;
    Opts.MatchReward = R.nextInRange(1, 4);
    Opts.ExceedPenalty = R.nextInRange(1, 4);
    Opts.UnknownPenalty = R.nextInRange(1, 4);
    std::string Err = crossCheckMinCostFlow(buildInferenceNetwork(*F, Opts));
    ASSERT_TRUE(Err.empty()) << "seed " << Seed << ": " << Err;
    inferFunctionProfile(*F, Opts);
    EXPECT_TRUE(isProfileConsistent(*F, 0)) << "seed " << Seed;
  }
}

/// Every inference network of a real pipeline build: the annotated module
/// right after profile loading and again after bottom-up inlining (the two
/// inferModuleProfile calls of buildWithPGO).
class WorkloadNetworks
    : public ::testing::TestWithParam<std::tuple<std::string, PGOVariant>> {
protected:
  static void expectReferenceOptimum(const Module &M, const char *Where) {
    for (const auto &F : M.Functions) {
      if (F->Blocks.empty())
        continue;
      std::string Err = crossCheckMinCostFlow(buildInferenceNetwork(*F));
      EXPECT_TRUE(Err.empty()) << Where << ", " << F->getName() << ": " << Err;
    }
  }
};

TEST_P(WorkloadNetworks, MatchReferenceOptimum) {
  auto [Name, V] = GetParam();
  ExperimentConfig Config;
  Config.Workload = workloadPreset(Name, 0.3);
  PGODriver Driver(Config);
  VariantOutcome Out = Driver.run(V);
  ASSERT_TRUE(Out.Profile.Has);

  auto M = Driver.source().clone();
  LoaderOptions Loader = Config.Loader;
  if (V == PGOVariant::CSSPGOFull) {
    insertProbes(*M, AnchorKind::PseudoProbe);
    Loader.InlineHotContexts = false;
  }
  Expected<LoaderStats> Stats =
      ProfilePipeline(PipelineOptions().loader(Loader)).apply(*M, Out.Profile);
  ASSERT_TRUE(Stats) << Stats.status().message();
  expectReferenceOptimum(*M, "after loading");

  inferModuleProfile(*M);
  InlineParams Inline = Config.Inline;
  if (Stats->HotThresholdUsed)
    Inline.HotCallsiteCount = Stats->HotThresholdUsed;
  runBottomUpInliner(*M, Inline);
  expectReferenceOptimum(*M, "after inlining");
}

static std::vector<std::string> oracleWorkloads() {
  std::vector<std::string> Names = serverWorkloadNames();
  Names.push_back("ClangProxy");
  for (const std::string &A : archetypeWorkloadNames())
    Names.push_back(A);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    Inference, WorkloadNetworks,
    ::testing::Combine(::testing::ValuesIn(oracleWorkloads()),
                       ::testing::Values(PGOVariant::AutoFDO,
                                         PGOVariant::CSSPGOFull)),
    [](const ::testing::TestParamInfo<WorkloadNetworks::ParamType> &Info) {
      return std::get<0>(Info.param) +
             (std::get<1>(Info.param) == PGOVariant::AutoFDO ? "_AutoFDO"
                                                             : "_CSSPGO");
    });
