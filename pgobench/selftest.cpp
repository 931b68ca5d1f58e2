//===- pgobench/selftest.cpp - The benchmark's checks can fail -----------===//
//
// Feeds every correctness check of the benchmark a corrupted input and
// requires it to reject, after requiring it to accept the clean input:
// a flipped exit value, one perturbed edge weight in a function solved by
// min-cost flow, a store with one flipped payload byte, an extra undecayed
// fold, and a binary that differs by one byte. Exits 0 when every check
// behaves, 1 otherwise.
//
//===----------------------------------------------------------------------===//

#include "checks.h"

#include "codegen/Linker.h"
#include "pgo/PGODriver.h"
#include "pgo/ProfilePipeline.h"
#include "sim/Executor.h"
#include "store/StoreFormat.h"
#include "workload/Workloads.h"

#include <cstdio>

using namespace csspgo;
using namespace pgobench;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  std::printf("%s %s\n", Cond ? "ok  " : "FAIL", What);
  Failures += !Cond;
}

std::vector<int64_t> exitsOf(const Binary &Bin, const WorkloadConfig &W,
                             bool Reference) {
  std::vector<int64_t> Exits;
  for (uint64_t S = 0; S != 2; ++S) {
    std::vector<int64_t> Mem = generateInput(W, 100 + S);
    ExecConfig EC;
    EC.ReferenceMode = Reference;
    Exits.push_back(execute(Bin, "main", Mem, EC).ExitValue);
  }
  return Exits;
}

} // namespace

int main() {
  ExperimentConfig C;
  C.Workload = workloadPreset("HaaS", 0.05);
  PGODriver D(C);
  VariantOutcome Out = D.run(PGOVariant::CSSPGOFull);

  // Exit values.
  std::vector<int64_t> Ref =
      exitsOf(*compileToBinary(D.source()), C.Workload, true);
  std::vector<int64_t> Shipped = exitsOf(*Out.Build->Bin, C.Workload, false);
  expect(firstExitMismatch(Ref, Shipped) < 0,
         "shipped binary returns the reference exit values");
  Shipped[1] ^= 1;
  expect(firstExitMismatch(Ref, Shipped) == 1,
         "a flipped exit value is rejected");

  // Flow conservation after min-cost-flow inference.
  auto M = annotateForQuality(D.source(), Out.Profile);
  auto Solvers = classifySolvers(*M);
  FlowTally Clean = checkFlow(*M, Solvers);
  expect(Clean.Solved > 0 && Clean.BrokenSolved == 0,
         "min-cost-flow functions conserve flow");
  bool Perturbed = false;
  for (auto &F : M->Functions) {
    if (Solvers[F->getName()] != FlowSolver::MinCostFlow)
      continue;
    for (auto &BB : F->Blocks)
      if (!Perturbed && !BB->SuccWeights.empty() && BB->Count > 0) {
        BB->SuccWeights[0] += 1;
        Perturbed = true;
      }
    if (Perturbed)
      break;
  }
  FlowTally Broken = checkFlow(*M, Solvers);
  expect(Perturbed && Broken.BrokenSolved == 1,
         "one perturbed edge weight is rejected");

  // Fleet stores.
  ProfilePipeline Pipe(PipelineOptions().decay(900));
  std::string Store;
  std::vector<uint64_t> Totals;
  for (uint64_t E = 0; E != 3; ++E) {
    if (!Pipe.ingest(Store, Out.Profile, E + 1))
      return 1;
    Totals.push_back(Out.Profile.CS.totalSamples());
  }
  std::string Why;
  expect(checkStore(Store, Totals, 900, Why), "a clean store is accepted");
  std::string Flipped = Store;
  Flipped[Flipped.size() / 2] ^= 0x10;
  expect(!checkStore(Flipped, Totals, 900, Why),
         "a store with one flipped payload byte is rejected");
  std::string Extra = Store;
  ProfilePipeline Undecayed(PipelineOptions().decay(1000));
  if (!Undecayed.ingest(Extra, Out.Profile, 4))
    return 1;
  std::vector<uint64_t> Claimed = Totals;
  Claimed.push_back(0);
  expect(!checkStore(Extra, Totals, 900, Why) &&
             !checkStore(Extra, Claimed, 900, Why),
         "an extra undecayed fold is rejected");

  // Binary images.
  Binary Copy = *Out.Build->Bin;
  expect(binaryImage(Copy) == binaryImage(*Out.Build->Bin),
         "a copied binary has the same image");
  Copy.Code[Copy.Code.size() / 2].Size ^= 1;
  expect(binaryImage(Copy) != binaryImage(*Out.Build->Bin),
         "a binary that differs by one byte is rejected");

  std::printf("%s\n", Failures ? "selftest FAILED" : "selftest passed");
  return Failures ? 1 : 0;
}
