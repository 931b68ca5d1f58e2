//===- pgobench/checks.h - Output checks of the PGO benchmark ----*- C++ -*-===//
//
// The correctness checks the benchmark applies to the program's outputs.
// Each is a pure function of its inputs, so the self-test can feed it a
// corrupted input and watch it reject.
//
//===----------------------------------------------------------------------===//

#ifndef PGOBENCH_CHECKS_H
#define PGOBENCH_CHECKS_H

#include "codegen/MachineModule.h"
#include "ir/Module.h"
#include "store/ProfileStore.h"
#include "verify/ProfileVerifier.h"

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace pgobench {

using namespace csspgo;

/// Byte image of a linked binary: every field the executor, the profile
/// generator and the post-link optimizer read. Two binaries are "the same
/// binary" when their images are equal.
inline std::string binaryImage(const Binary &B) {
  std::string Out;
  auto Put = [&Out](const auto &V) {
    char Buf[sizeof(V)];
    std::memcpy(Buf, &V, sizeof(V));
    Out.append(Buf, sizeof(V));
  };
  auto PutOp = [&](const Operand &O) {
    Put(static_cast<uint8_t>(O.K));
    Put(O.Val);
  };
  auto PutStr = [&](const std::string &S) {
    Put(static_cast<uint64_t>(S.size()));
    Out += S;
  };
  Put(static_cast<uint64_t>(B.Code.size()));
  for (const MInst &I : B.Code) {
    Put(static_cast<uint32_t>(I.Op));
    Put(I.Dst);
    PutOp(I.A);
    PutOp(I.B);
    PutOp(I.C);
    Put(static_cast<uint64_t>(I.Args.size()));
    for (const Operand &A : I.Args)
      PutOp(A);
    Put(I.CalleeIdx);
    Put(static_cast<uint8_t>(I.IsTailCall));
    Put(static_cast<uint8_t>(I.InvertCond));
    Put(I.Target);
    Put(I.CounterIdx);
    Put(I.CallSiteId);
    Put(I.Size);
    Put(I.Addr);
    Put(I.DL.Line);
    Put(I.DL.Discriminator);
    Put(I.OriginGuid);
    Put(I.InlineId);
  }
  Put(static_cast<uint64_t>(B.Funcs.size()));
  for (const MachineFunction &F : B.Funcs) {
    PutStr(F.Name);
    Put(F.Guid);
    Put(F.NumParams);
    Put(F.NumRegs);
    Put(static_cast<uint64_t>(F.HotBegin));
    Put(static_cast<uint64_t>(F.HotEnd));
    Put(static_cast<uint64_t>(F.ColdBegin));
    Put(static_cast<uint64_t>(F.ColdEnd));
    Put(static_cast<uint64_t>(F.EntryIdx));
    Put(static_cast<uint64_t>(F.InlineTable.size()));
    for (const auto &Ctx : F.InlineTable) {
      Put(static_cast<uint64_t>(Ctx.size()));
      for (const InlineFrame &Fr : Ctx) {
        Put(Fr.FuncGuid);
        Put(Fr.CallLoc.Line);
        Put(Fr.CallLoc.Discriminator);
        Put(Fr.CallProbeId);
      }
    }
    Put(F.CounterBase);
    Put(F.NumCounters);
  }
  Put(static_cast<uint64_t>(B.Probes.size()));
  for (const ProbeRecord &P : B.Probes) {
    Put(P.Guid);
    Put(P.ProbeId);
    Put(P.InlineId);
    Put(P.FuncIdx);
    Put(static_cast<uint64_t>(P.InstIdx));
    Put(static_cast<uint8_t>(P.IsCallProbe));
  }
  for (const auto &[Guid, Name] : B.DebugNames) {
    Put(Guid);
    PutStr(Name);
  }
  Put(static_cast<uint64_t>(B.FuncTable.size()));
  for (uint32_t I : B.FuncTable)
    Put(I);
  Put(B.NumCounters);
  for (const auto &[Key, Owner] : B.CounterOwners) {
    Put(Key);
    Put(Owner.first);
    Put(Owner.second);
  }
  return Out;
}

/// Every shipped binary must return the reference module's exit value on
/// every eval input. Returns the index of the first mismatching input, or
/// -1 when all agree.
inline int firstExitMismatch(const std::vector<int64_t> &Reference,
                             const std::vector<int64_t> &Shipped) {
  if (Reference.size() != Shipped.size())
    return 0;
  for (size_t I = 0; I != Reference.size(); ++I)
    if (Reference[I] != Shipped[I])
      return static_cast<int>(I);
  return -1;
}

/// How profile inference treats a function (mirrors the size cut in
/// inference/ProfileInference.cpp: min-cost flow up to 600 blocks, the
/// local smoothing fallback above).
enum class FlowSolver { Skipped, MinCostFlow, Fallback };

inline FlowSolver solverFor(const Function &F) {
  bool Any = false;
  for (const auto &BB : F.Blocks)
    Any |= BB->HasCount && BB->Count > 0;
  if (!Any || F.Blocks.empty())
    return FlowSolver::Skipped;
  return F.Blocks.size() > 600 ? FlowSolver::Fallback
                               : FlowSolver::MinCostFlow;
}

/// Number of blocks of \p F whose count differs from its in-flow or its
/// out-flow. The inference circulation closes every exit back into the
/// entry, so the entry's in-flow includes the exit blocks' counts.
inline unsigned flowViolations(const Function &F) {
  std::map<const BasicBlock *, uint64_t> In;
  uint64_t ExitFlow = 0;
  unsigned Bad = 0;
  for (const auto &BB : F.Blocks) {
    std::vector<BasicBlock *> Succs = BB->successors();
    if (BB->SuccWeights.size() != Succs.size()) {
      ++Bad;
      continue;
    }
    uint64_t Out = 0;
    for (size_t S = 0; S != Succs.size(); ++S) {
      In[Succs[S]] += BB->SuccWeights[S];
      Out += BB->SuccWeights[S];
    }
    if (Succs.empty())
      ExitFlow += BB->Count;
    else if (Out != BB->Count)
      ++Bad;
  }
  const BasicBlock *Entry = F.Blocks.front().get();
  for (const auto &BB : F.Blocks) {
    uint64_t Flow = In[BB.get()] + (BB.get() == Entry ? ExitFlow : 0);
    if (Flow != BB->Count)
      ++Bad;
  }
  return Bad;
}

/// Tallies of one flow check over a module.
struct FlowTally {
  unsigned Solved = 0;        ///< Functions solved by min-cost flow.
  unsigned Fallback = 0;      ///< Functions sent to the fallback.
  unsigned NonConserving = 0; ///< Fallback functions that break flow.
  unsigned BrokenSolved = 0;  ///< Solved functions that break flow (a fault).
  std::string FirstBroken;

  FlowTally &operator+=(const FlowTally &O) {
    Solved += O.Solved;
    Fallback += O.Fallback;
    NonConserving += O.NonConserving;
    BrokenSolved += O.BrokenSolved;
    if (FirstBroken.empty())
      FirstBroken = O.FirstBroken;
    return *this;
  }
};

/// Checks the functions \p Solvers classified before an inference call.
inline FlowTally checkFlow(const Module &M,
                           const std::map<std::string, FlowSolver> &Solvers) {
  FlowTally T;
  for (const auto &F : M.Functions) {
    auto It = Solvers.find(F->getName());
    if (It == Solvers.end() || It->second == FlowSolver::Skipped)
      continue;
    bool Broken = flowViolations(*F) != 0;
    if (It->second == FlowSolver::Fallback) {
      ++T.Fallback;
      T.NonConserving += Broken;
      continue;
    }
    ++T.Solved;
    if (Broken) {
      ++T.BrokenSolved;
      if (T.FirstBroken.empty())
        T.FirstBroken = F->getName();
    }
  }
  return T;
}

inline std::map<std::string, FlowSolver> classifySolvers(const Module &M) {
  std::map<std::string, FlowSolver> Out;
  for (const auto &F : M.Functions)
    Out[F->getName()] = solverFor(*F);
  return Out;
}

/// Checks one fleet store against the epoch totals the benchmark computed
/// itself (one entry per fold, in fold order, each the sum of the host
/// profiles folded in that epoch). The store must re-open, pass Full
/// verification, hold no more samples than were folded into it, and sit
/// within the rounding band of the running decayed sum: each decay step
/// rounds every count slot half up, so it moves the total by less than
/// half a sample per slot.
inline bool checkStore(const std::string &Bytes,
                       const std::vector<uint64_t> &EpochTotals,
                       uint32_t DecayPermille, std::string &Why) {
  Expected<ProfileStore> St = ProfileStore::open(Bytes);
  if (!St) {
    Why = "store does not re-open: " + St.status().message();
    return false;
  }
  Expected<ContextProfile> CS = St->loadContext();
  if (!CS) {
    Why = "store does not load: " + CS.status().message();
    return false;
  }
  VerifierOptions VO;
  VO.Level = VerifyLevel::Full;
  VerifyReport R = verifyContextProfile(*CS, VO);
  if (!R.ok()) {
    Why = "store fails Full verification: " + R.str();
    return false;
  }
  if (St->epochs().size() != EpochTotals.size()) {
    Why = "store holds " + std::to_string(St->epochs().size()) +
          " epochs, expected " + std::to_string(EpochTotals.size());
    return false;
  }
  uint64_t Slots = 0;
  CS->forEachNode([&](const SampleContext &, const ContextTrieNode &N) {
    Slots += N.Profile.Body.size();
  });
  long double Decayed = 0, Band = 0;
  uint64_t Folded = 0;
  for (size_t E = 0; E != EpochTotals.size(); ++E) {
    if (E) {
      Decayed = Decayed * DecayPermille / 1000;
      Band = Band * DecayPermille / 1000 + 0.5L * Slots;
    }
    Decayed += EpochTotals[E];
    Folded += EpochTotals[E];
  }
  uint64_t Total = St->totalSamples();
  if (Total > Folded) {
    Why = "store total " + std::to_string(Total) +
          " exceeds the folded host total " + std::to_string(Folded);
    return false;
  }
  if (Total + Band < Decayed || Total > Decayed + Band) {
    Why = "store total " + std::to_string(Total) +
          " is outside the decayed sum " +
          std::to_string(static_cast<uint64_t>(Decayed)) + " +- " +
          std::to_string(static_cast<uint64_t>(Band));
    return false;
  }
  return true;
}

} // namespace pgobench

#endif // PGOBENCH_CHECKS_H
