//===- pgobench/bench.cpp - End-to-end PGO benchmark ---------------------===//
//
// Runs one named workload of the PGO loop from a seed and prints one JSON
// line of metrics. Untraced runs (--trace 0) drive the program through its
// public entry points (PGODriver, ProfilePipeline, ProfileService) and time
// whole rounds for --seconds. The traced run (--trace 1) calls each layer's
// public function in the order the program does, records a span around
// every call, writes a Chrome trace-event file and checks that it produced
// exactly what the untraced entry points produce.
//
// Usage:
//   pgobench --workload server|client|fleet --seed N --seconds S
//            --trace 0|1 [--trace-file PATH]
//
//===----------------------------------------------------------------------===//

#include "checks.h"

#include "codegen/Linker.h"
#include "inference/ProfileInference.h"
#include "ir/Verifier.h"
#include "loader/ProfileLoader.h"
#include "opt/Inliner.h"
#include "opt/PassManager.h"
#include "pgo/PGODriver.h"
#include "pgo/ProfilePipeline.h"
#include "postlink/PostLinkOptimizer.h"
#include "preinline/PreInliner.h"
#include "probe/ProbeInserter.h"
#include "probe/ProbeTable.h"
#include "profgen/BinarySizeExtractor.h"
#include "profgen/ProfileGenerator.h"
#include "profile/ProfileArena.h"
#include "profile/ProfileIO.h"
#include "profile/Trimmer.h"
#include "quality/BlockOverlap.h"
#include "service/ProfileService.h"
#include "sim/Executor.h"
#include "sim/InstrRuntime.h"
#include "store/ProfileStore.h"
#include "workload/FleetSim.h"
#include "workload/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace csspgo;
using namespace pgobench;

namespace {

using Clock = std::chrono::steady_clock;
Clock::time_point ProcessStart;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Per-round wall times and host-probe times on stderr, for judging the
/// run-to-run spread.
void logRounds(const std::vector<double> &Wall,
               const std::vector<double> &Probes) {
  std::fprintf(stderr, "pgobench: rounds (s):");
  for (double V : Wall)
    std::fprintf(stderr, " %.3f", V);
  std::fprintf(stderr, "\npgobench: host probes (s):");
  for (double V : Probes)
    std::fprintf(stderr, " %.4f", V);
  std::fprintf(stderr, "\n");
}

//===----------------------------------------------------------------------===//
// Host speed. On a shared host the speed of the same code drifts by 20-40%
// over minutes: neighbours contend for the caches and the memory system
// (the process's CPU time reads the same as its wall time, so it is not
// preempted; it runs slower). Every timed metric is therefore scaled to a
// reference host speed by a fixed piece of the benchmark's own work timed
// next to it.
//===----------------------------------------------------------------------===//

/// Shortest paths (a binary heap over adjacency lists) on a fixed random
/// graph of a few MiB: the pointer-chasing, branchy, cache-bound kind of
/// work the compiler passes and the flow solver do, but none of the
/// program's code, so a change to the program leaves it alone.
class HostProbe {
public:
  /// The probe's wall time on the reference host: the timed metrics are
  /// seconds on a host where one probe takes this long.
  static constexpr double ReferenceS = 0.1;

  /// Builds the graph and warms the probe up; call it after set-up is
  /// timed.
  HostProbe() : Adj(60000) {
    for (uint32_t I = 0; I != Adj.size(); ++I)
      for (uint32_t E = 0; E != 6; ++E) {
        uint64_t H = mix(I * 8 + E);
        Adj[I].push_back({static_cast<uint32_t>(H % Adj.size()),
                          static_cast<uint32_t>((H >> 32) % 1000 + 1)});
      }
    run();
  }

  /// Factor that scales a time taken between the last two of \p Probes to
  /// the reference host.
  static double scale(const std::vector<double> &Probes) {
    return 2 * ReferenceS / (Probes.end()[-2] + Probes.back());
  }

  /// Wall time of one probe.
  double run() {
    Clock::time_point T0 = Clock::now();
    uint64_t Sum = 0;
    for (uint32_t Src = 0; Src != 4; ++Src) {
      std::vector<uint64_t> Dist(Adj.size(), ~0ull);
      std::vector<std::pair<uint64_t, uint32_t>> Heap = {{0, Src}};
      Dist[Src] = 0;
      while (!Heap.empty()) {
        std::pop_heap(Heap.begin(), Heap.end(), std::greater<>());
        auto [D, U] = Heap.back();
        Heap.pop_back();
        if (D != Dist[U])
          continue;
        for (auto [V, W] : Adj[U])
          if (D + W < Dist[V]) {
            Dist[V] = D + W;
            Heap.push_back({D + W, V});
            std::push_heap(Heap.begin(), Heap.end(), std::greater<>());
          }
      }
      for (uint64_t D : Dist)
        Sum += D;
    }
    Sink = Sum;
    return secondsSince(T0);
  }

private:
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> Adj;
  volatile uint64_t Sink = 0;
};

double peakRssMiB() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Workload make-up. Everything below is a function of (workload, seed).
//===----------------------------------------------------------------------===//

struct Cell {
  const char *Preset;
  double Scale;
};

const std::vector<Cell> ServerCells = {{"HHVM", 0.3}, {"AdRetriever", 0.3}};
const std::vector<Cell> ClientCells = {{"ClangProxy", 1.0}};

/// Epochs each PGO cell folds its fresh profile into a new store per round
/// (the deployment path from profile to build farm).
constexpr unsigned PGOFoldEpochs = 32;
constexpr uint32_t DecayPermille = 900;

/// The seed picks the eval inputs. The program of each preset, its
/// training input and the sampler seed stay fixed (TrainSeed 7, the
/// driver's default): the min-cost-flow solver's work swings by a third
/// between training inputs, so a seeded training input would make the
/// timing spread a property of the inputs instead of the machine.
ExperimentConfig cellConfig(const Cell &C, uint64_t Seed) {
  ExperimentConfig E;
  E.Workload = workloadPreset(C.Preset, C.Scale);
  E.EvalSeedBase = 5000 + (mix(Seed) % 1000003) * 16;
  return E;
}

/// The fleet: three services, 32 hosts, 8 epochs, a release deploy every
/// 3 epochs, decay stated explicitly. The seed picks the base sampling
/// period, so every host's sample stream differs while the service
/// programs and request streams stay those of fleet seed 1.
ServiceConfig fleetConfig(uint64_t Seed) {
  ServiceConfig SC;
  SC.Fleet.Hosts = 32;
  SC.Fleet.Services = 3;
  SC.Fleet.Epochs = 8;
  SC.Fleet.Seed = 1;
  SC.Fleet.RequestScale = 0.05;
  SC.Fleet.BaseSamplePeriod = 4001 + 2 * (mix(Seed) % 32);
  // Producer + folder + shards stay within the hardware threads.
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  SC.Shards = HW > 3 ? 2 : 1;
  SC.QueueBound = 16;
  SC.DecayPermille = DecayPermille;
  SC.DriftEveryEpochs = 3;
  return SC;
}

uint64_t fleetEvalSeed(uint64_t Seed) { return 9000 + (mix(Seed) >> 40) * 4; }

//===----------------------------------------------------------------------===//
// Spans.
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  double StartUs = 0, EndUs = 0;
  int Parent = -1;
};

class Tracer {
public:
  template <class Fn> decltype(auto) span(const std::string &Name, Fn &&F) {
    int Id = open(Name);
    if constexpr (std::is_void_v<decltype(F())>) {
      F();
      close(Id);
    } else {
      decltype(auto) R = F();
      close(Id);
      return R;
    }
  }

  /// Summed duration (ms) of spans named \p Name under a "measured" root.
  double ms(const std::string &Name) const {
    double Sum = 0;
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Name == Name && measured(I))
        Sum += Spans[I].EndUs - Spans[I].StartUs;
    return Sum / 1000.0;
  }

  double rootSeconds(const std::string &Name) const {
    double Sum = 0;
    for (const Span &S : Spans)
      if (S.Parent < 0 && S.Name == Name)
        Sum += S.EndUs - S.StartUs;
    return Sum / 1e6;
  }

  bool inMeasured() const {
    return !Stack.empty() && Spans[Stack.front()].Name == "measured";
  }

  /// Self time per span name over the whole run (duration minus children).
  std::map<std::string, double> selfMs() const {
    std::vector<double> Child(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[S.Parent] += S.EndUs - S.StartUs;
    std::map<std::string, double> Out;
    for (size_t I = 0; I != Spans.size(); ++I)
      Out[Spans[I].Name] +=
          (Spans[I].EndUs - Spans[I].StartUs - Child[I]) / 1000.0;
    return Out;
  }

  /// Chrome trace-event JSON (complete events; Perfetto opens it).
  std::string chromeJSON() const {
    std::ostringstream OS;
    OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "\"ts\":%.3f,\"dur\":%.3f", S.StartUs,
                    S.EndUs - S.StartUs);
      OS << (I ? "," : "") << "{\"name\":\"" << S.Name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << Buf
         << ",\"args\":{\"id\":" << I << ",\"parent\":" << S.Parent << "}}";
    }
    OS << "]}\n";
    return OS.str();
  }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     ProcessStart)
        .count();
  }
  int open(const std::string &Name) {
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.StartUs = nowUs();
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size() - 1));
    return Stack.back();
  }
  void close(int Id) {
    Spans[Id].EndUs = nowUs();
    Stack.pop_back();
  }
  bool measured(size_t I) const {
    int R = static_cast<int>(I);
    while (Spans[R].Parent >= 0)
      R = Spans[R].Parent;
    return Spans[R].Name == "measured";
  }

  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Counts the traced run records at the layer boundaries (measured region
/// only).
struct Counts {
  uint64_t Instructions = 0;
  uint64_t ProfgenSamples = 0, ProfgenContexts = 0;
  uint64_t ContextsTrimmed = 0, PreInlines = 0, ContextsChecked = 0;
  uint64_t Annotated = 0, LoaderInlines = 0, StaleMatched = 0;
  uint64_t CountsRecovered = 0;
  FlowTally Flow;
  uint64_t InferenceFunctions = 0;
  uint64_t Inlined = 0, MidChanges = 0, LateChanges = 0, IRInsts = 0;
  uint64_t TextBytes = 0;
  uint64_t Reordered = 0, Split = 0, Folded = 0, Kept = 0;
  uint64_t StoreBytes = 0, QueueHighWater = 0;
};

/// The result of one run: the JSON line's fields plus a reason on failure.
struct Result {
  bool Correct = true;
  std::string Why;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> Metrics;

  void fail(const std::string &Reason) {
    if (Correct)
      Why = Reason;
    Correct = false;
  }
  void metric(const std::string &Name, double V, const std::string &Unit) {
    Metrics.emplace_back(Name, V, Unit);
  }
  std::string json() const {
    std::ostringstream OS;
    OS << "{\"correct\": " << (Correct ? "true" : "false")
       << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
       << ", \"metrics\": {";
    for (size_t I = 0; I != Metrics.size(); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.9g", std::get<1>(Metrics[I]));
      OS << (I ? ", " : "") << "\"" << std::get<0>(Metrics[I])
         << "\": {\"value\": " << Buf << ", \"unit\": \""
         << std::get<2>(Metrics[I]) << "\"}";
    }
    OS << "}}";
    return OS.str();
  }
};

uint64_t irInstructions(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.Functions)
    for (const auto &BB : F->Blocks)
      N += BB->Insts.size();
  return N;
}

//===----------------------------------------------------------------------===//
// Checks shared by both paths.
//===----------------------------------------------------------------------===//

/// Exit values of \p Bin on the cell's eval inputs.
std::vector<int64_t> evalExits(const Binary &Bin, const WorkloadConfig &W,
                               uint64_t SeedBase, double Shift, unsigned Runs,
                               bool Reference, std::vector<uint64_t> *Cycles) {
  std::vector<int64_t> Exits;
  for (unsigned E = 0; E != Runs; ++E) {
    std::vector<int64_t> Mem = generateInput(W, SeedBase + E, Shift);
    ExecConfig EC;
    EC.ReferenceMode = Reference;
    RunResult R = execute(Bin, "main", Mem, EC);
    Exits.push_back(R.Completed ? R.ExitValue : INT64_MIN);
    if (Cycles)
      Cycles->push_back(R.Cycles);
  }
  return Exits;
}

/// The reference: the unoptimized source module lowered directly, with no
/// inliner or passes, run by the reference interpreter.
std::vector<int64_t> referenceExits(const Module &Source,
                                    const WorkloadConfig &W,
                                    uint64_t SeedBase, double Shift,
                                    unsigned Runs) {
  std::unique_ptr<Binary> Ref = compileToBinary(Source);
  return evalExits(*Ref, W, SeedBase, Shift, Runs, /*Reference=*/true,
                   nullptr);
}

/// Instrumentation ground truth against \p Profile's annotation of
/// \p Source (Table I's block overlap).
double blockOverlap(const Module &Source, const WorkloadConfig &W,
                    uint64_t TrainSeed, const ProfileBundle &Profile) {
  BuildConfig BC;
  BC.Variant = PGOVariant::Instr;
  BuildResult Instr = buildWithPGO(Source, BC, nullptr);
  std::vector<int64_t> Mem = generateInput(W, TrainSeed);
  ExecConfig EC;
  EC.CollectValueProfile = true;
  RunResult R = execute(*Instr.Bin, "main", Mem, EC);
  ProfilePipeline Pipe(PipelineOptions().kind(ProfGenKind::Instr));
  Expected<ProfileBundle> GT =
      Pipe.generate(*Instr.Bin, dumpCounters(*Instr.Bin, R), &R);
  if (!GT)
    return -1;
  auto Truth = annotateForQuality(Source, *GT);
  auto Measured = annotateForQuality(Source, Profile);
  return computeBlockOverlap(*Measured, *Truth).ProgramOverlap;
}

/// Folds \p Profile into a new store PGOFoldEpochs times (timestamps 1..N),
/// appending each fold's wall time to \p FoldS when given.
std::string foldProfile(const ProfileBundle &Profile,
                        std::vector<double> *FoldS = nullptr) {
  ProfilePipeline Pipe(PipelineOptions().decay(DecayPermille));
  std::string Store;
  for (unsigned E = 0; E != PGOFoldEpochs; ++E) {
    Clock::time_point T0 = Clock::now();
    if (Status S = Pipe.ingest(Store, Profile, E + 1); !S)
      return std::string();
    if (FoldS)
      FoldS->push_back(secondsSince(T0));
  }
  return Store;
}

//===----------------------------------------------------------------------===//
// Untraced PGO workloads (server, client).
//===----------------------------------------------------------------------===//

struct CellOutput {
  std::vector<std::string> Images; ///< Shipped binaries (PGO, post-link).
  std::vector<std::vector<uint64_t>> EvalCycles;
  uint64_t CodeSize = 0;
  std::string ProfileText;
  std::string Store;
};

/// What one PGO cycle of a cell ships, taken from the driver's outcome.
CellOutput shippedOf(const VariantOutcome &Out, const PostLinkOutcome *PL,
                     const Binary *PostLinkBin) {
  CellOutput C;
  C.Images.push_back(binaryImage(*Out.Build->Bin));
  C.EvalCycles.push_back(Out.EvalCycles);
  C.CodeSize = Out.CodeSizeBytes;
  if (PL) {
    C.Images.push_back(binaryImage(*PostLinkBin));
    C.EvalCycles.push_back(PL->EvalCycles);
    C.CodeSize = PL->CodeSizeBytes;
  }
  C.ProfileText = serializeContextProfile(Out.Profile.CS);
  return C;
}

/// eval_cycles of a cell: the shipped binary's cycles (the post-link
/// rollout's when stacked).
uint64_t shippedEvalCycles(const CellOutput &C) {
  uint64_t Sum = 0;
  for (uint64_t V : C.EvalCycles.back())
    Sum += V;
  return Sum;
}

bool sameCell(const CellOutput &A, const CellOutput &B) {
  return A.Images == B.Images && A.EvalCycles == B.EvalCycles &&
         A.CodeSize == B.CodeSize && A.ProfileText == B.ProfileText &&
         A.Store == B.Store;
}

/// The first round's outcome of a cell, kept for the checks after the
/// timed region.
struct KeptCell {
  VariantOutcome Out;
  std::unique_ptr<Binary> PostLinkBin;
};

/// Runs one cycle of every cell through the public drivers. \p Cycle
/// accumulates the wall time of the PGO cycles; \p FoldS collects the
/// wall time of every store fold.
std::vector<CellOutput> untracedRound(
    std::vector<std::unique_ptr<PGODriver>> &Drivers, bool PostLink,
    double &Cycle, std::vector<double> &FoldS,
    std::vector<KeptCell> *Keep = nullptr) {
  std::vector<CellOutput> Outs;
  for (auto &D : Drivers) {
    Clock::time_point T0 = Clock::now();
    KeptCell K;
    PostLinkOutcome PL;
    if (PostLink) {
      PL = D->runPostLink(PGOVariant::CSSPGOFull);
      K.Out = std::move(PL.Base);
      K.PostLinkBin = std::move(PL.Bin);
    } else {
      K.Out = D->run(PGOVariant::CSSPGOFull);
    }
    Cycle += secondsSince(T0);
    CellOutput C = shippedOf(K.Out, PostLink ? &PL : nullptr,
                             K.PostLinkBin.get());
    C.Store = foldProfile(K.Out.Profile, &FoldS);
    Outs.push_back(std::move(C));
    if (Keep)
      Keep->push_back(std::move(K));
  }
  return Outs;
}

void runPGOWorkload(const std::vector<Cell> &Cells, bool PostLink,
                    uint64_t Seed, double Seconds, Result &Res) {
  // Set-up: program and input generation plus the plain baseline build.
  std::vector<std::unique_ptr<PGODriver>> Drivers;
  for (const Cell &C : Cells) {
    Drivers.push_back(std::make_unique<PGODriver>(cellConfig(C, Seed)));
    Drivers.back()->baseline();
  }
  double SetupS = secondsSince(ProcessStart);

  // Each round's times are scaled by the mean of the host probes taken
  // just before and just after it.
  HostProbe Probe;
  std::vector<double> Probes = {Probe.run()};
  std::vector<double> CycleS, RawCycleS, FoldS;
  double PeakRss = 0;
  std::vector<CellOutput> First;
  std::vector<KeptCell> FirstOutcomes;
  Clock::time_point Begin = Clock::now();
  do {
    double Cycle = 0;
    size_t FoldsBefore = FoldS.size();
    std::vector<CellOutput> Outs = untracedRound(
        Drivers, PostLink, Cycle, FoldS,
        First.empty() ? &FirstOutcomes : nullptr);
    Probes.push_back(Probe.run());
    double Scale = HostProbe::scale(Probes);
    Res.Attempted += Drivers.size();
    RawCycleS.push_back(Cycle);
    CycleS.push_back(Cycle * Scale);
    for (size_t I = FoldsBefore; I != FoldS.size(); ++I)
      FoldS[I] *= Scale;
    if (First.empty()) {
      First = std::move(Outs);
      PeakRss = peakRssMiB();
      continue;
    }
    for (size_t I = 0; I != Outs.size(); ++I)
      if (!sameCell(Outs[I], First[I]))
        Res.fail(std::string(Cells[I].Preset) +
                 ": a later cycle shipped different binaries, cycles or "
                 "profiles than the first");
  } while (secondsSince(Begin) < Seconds);

  // Checks and deterministic outputs, outside the timed region.
  uint64_t EvalCycles = 0, CodeSize = 0, StoreBytes = 0;
  double Overlap = 0;
  for (size_t I = 0; I != Drivers.size(); ++I) {
    const ExperimentConfig &EC = Drivers[I]->config();
    const Module &Src = Drivers[I]->source();
    std::vector<int64_t> Ref =
        referenceExits(Src, EC.Workload, EC.EvalSeedBase, EC.EvalShift,
                       EC.EvalRuns);
    const VariantOutcome &Out = FirstOutcomes[I].Out;
    // Every shipped binary (PGO, and post-link when stacked) returns the
    // reference exit value on every eval input.
    std::vector<const Binary *> Shipped = {Out.Build->Bin.get()};
    if (PostLink)
      Shipped.push_back(FirstOutcomes[I].PostLinkBin.get());
    for (size_t B = 0; B != Shipped.size(); ++B) {
      std::vector<uint64_t> Cycles;
      std::vector<int64_t> Exits =
          evalExits(*Shipped[B], EC.Workload, EC.EvalSeedBase, EC.EvalShift,
                    EC.EvalRuns, false, &Cycles);
      if (int M = firstExitMismatch(Ref, Exits); M >= 0)
        Res.fail(std::string(Cells[I].Preset) + ": shipped binary " +
                 std::to_string(B) + " returns " + std::to_string(Exits[M]) +
                 " on eval input " + std::to_string(M) + ", reference " +
                 std::to_string(Ref[M]));
      if (binaryImage(*Shipped[B]) != First[I].Images[B] ||
          Cycles != First[I].EvalCycles[B])
        Res.fail(std::string(Cells[I].Preset) +
                 ": re-evaluated binary differs from the shipped one");
    }
    EvalCycles += shippedEvalCycles(First[I]);
    CodeSize += First[I].CodeSize;
    StoreBytes += First[I].Store.size();
    if (First[I].Store.empty())
      Res.fail(std::string(Cells[I].Preset) + ": profile fold failed");
    Overlap += blockOverlap(Src, EC.Workload, EC.TrainSeed, Out.Profile);
  }
  Overlap /= Drivers.size();

  logRounds(RawCycleS, Probes);
  Res.metric("setup_s", SetupS * HostProbe::ReferenceS / Probes.front(), "s");
  Res.metric("pgo_cycle_s", median(CycleS), "s");
  Res.metric("eval_cycles", static_cast<double>(EvalCycles), "cycles");
  Res.metric("code_size_bytes", static_cast<double>(CodeSize), "bytes");
  Res.metric("block_overlap", Overlap, "ratio");
  Res.metric("peak_rss_mb", PeakRss, "MiB");
  // Each fold takes milliseconds: the median single fold over the run is
  // robust to the bursts of a shared machine.
  Res.metric("ingest_rate", 1.0 / median(FoldS), "host-epochs/s");
  Res.metric("store_bytes", static_cast<double>(StoreBytes), "bytes");
}

//===----------------------------------------------------------------------===//
// The fleet's releases and the build farm that consumes its stores.
//===----------------------------------------------------------------------===//

/// The current release of service \p S after the pass: the service's
/// program with the same drift edits the service deploys.
std::unique_ptr<Module> currentRelease(const FleetSim &Fleet, unsigned S,
                                       const ServiceConfig &SC) {
  auto M = generateProgram(Fleet.serviceWorkload(S));
  unsigned Releases = 1;
  for (unsigned E = 1; E != SC.Fleet.Epochs; ++E)
    if (SC.DriftEveryEpochs && E % SC.DriftEveryEpochs == 0) {
      applyCFGDrift(*M,
                    Releases % 2 ? CFGDriftKind::GuardInsert
                                 : CFGDriftKind::BlockSplit,
                    E);
      ++Releases;
    }
  return M;
}

/// Checks a pass's stores and builds every service's current release from
/// its store, as the build farm would. Adds the shipped binaries' eval
/// cycles, text size and block overlap.
void deployFleet(const ServiceConfig &SC, const FleetSim &Fleet,
                 const std::vector<std::string> &Stores,
                 const std::vector<std::vector<uint64_t>> &EpochTotals,
                 uint64_t Seed, Result &Res, uint64_t &EvalCycles,
                 uint64_t &CodeSize, double &Overlap) {
  uint64_t EvalBase = fleetEvalSeed(Seed);
  for (unsigned S = 0; S != SC.Fleet.Services; ++S) {
    std::string Why;
    if (!checkStore(Stores[S], EpochTotals[S], SC.DecayPermille, Why)) {
      Res.fail(Fleet.serviceName(S) + ": " + Why);
      continue;
    }
    Expected<ProfileStore> St = ProfileStore::open(Stores[S]);
    Expected<ContextProfile> CS = St->loadContext();
    ProfileBundle Bundle;
    Bundle.Has = true;
    Bundle.IsCS = true;
    Bundle.CS = CS.take();

    WorkloadConfig W = Fleet.serviceWorkload(S);
    auto Src = currentRelease(Fleet, S, SC);
    BuildConfig BC;
    BC.Variant = PGOVariant::CSSPGOFull;
    BuildResult B = buildWithPGO(*Src, BC, &Bundle);
    std::vector<uint64_t> Cycles;
    std::vector<int64_t> Exits =
        evalExits(*B.Bin, W, EvalBase, 0.04, 3, false, &Cycles);
    std::vector<int64_t> Ref = referenceExits(*Src, W, EvalBase, 0.04, 3);
    if (int M = firstExitMismatch(Ref, Exits); M >= 0)
      Res.fail(Fleet.serviceName(S) + ": store-built binary returns " +
               std::to_string(Exits[M]) + " on eval input " +
               std::to_string(M) + ", reference " + std::to_string(Ref[M]));
    for (uint64_t C : Cycles)
      EvalCycles += C;
    CodeSize += B.Bin->textSize();
    Overlap += blockOverlap(*Src, W, EvalBase, Bundle) / SC.Fleet.Services;
  }
}

/// Per-epoch fresh totals recorded in each store, after checking they sum
/// to what the service reports as ingested.
std::vector<std::vector<uint64_t>> storeEpochTotals(const ProfileService &Svc,
                                                    Result &Res) {
  FleetSnapshot Snap = Svc.snapshot();
  std::vector<std::vector<uint64_t>> Out;
  for (unsigned S = 0; S != Snap.Services.size(); ++S) {
    std::vector<uint64_t> Totals;
    uint64_t Sum = 0;
    Expected<ProfileStore> St = ProfileStore::openBorrowed(Svc.store(S));
    if (St)
      for (const EpochInfo &E : St->epochs()) {
        Totals.push_back(E.TotalSamples);
        Sum += E.TotalSamples;
      }
    if (Sum != Snap.Services[S].SamplesIngested)
      Res.fail(Snap.Services[S].Name +
               ": store epochs do not sum to the samples ingested");
    if (Snap.Services[S].EpochsDropped)
      Res.fail(Snap.Services[S].Name + ": the service dropped an epoch");
    Out.push_back(std::move(Totals));
  }
  return Out;
}

void runFleetWorkload(uint64_t Seed, double Seconds, Result &Res) {
  ServiceConfig SC = fleetConfig(Seed);
  // Set-up: service construction generates each service's program and
  // builds its first release.
  auto Svc = std::make_unique<ProfileService>(SC);
  double SetupS = secondsSince(ProcessStart);

  HostProbe Probe;
  std::vector<double> Probes = {Probe.run()};
  std::vector<double> PassS, RawPassS;
  double PeakRss = 0;
  std::vector<std::string> First;
  std::vector<std::vector<uint64_t>> FirstTotals;
  Clock::time_point Begin = Clock::now();
  do {
    if (!Svc)
      Svc = std::make_unique<ProfileService>(SC);
    Clock::time_point T0 = Clock::now();
    Status St = Svc->run(SC.Fleet.Epochs);
    RawPassS.push_back(secondsSince(T0));
    Probes.push_back(Probe.run());
    PassS.push_back(RawPassS.back() * HostProbe::scale(Probes));
    Res.Attempted += 1;
    if (!St) {
      Res.Failed += 1;
      Res.fail("service pass failed: " + St.message());
    }
    std::vector<std::string> Stores;
    for (unsigned S = 0; S != SC.Fleet.Services; ++S)
      Stores.push_back(Svc->store(S));
    if (First.empty()) {
      First = std::move(Stores);
      FirstTotals = storeEpochTotals(*Svc, Res);
      PeakRss = peakRssMiB();
    } else if (Stores != First) {
      Res.fail("a later pass wrote different store bytes than the first");
    }
    Svc.reset();
  } while (secondsSince(Begin) < Seconds);

  uint64_t EvalCycles = 0, CodeSize = 0, StoreBytes = 0;
  double Overlap = 0;
  FleetSim Fleet(SC.Fleet);
  deployFleet(SC, Fleet, First, FirstTotals, Seed, Res, EvalCycles, CodeSize,
              Overlap);
  for (const std::string &S : First)
    StoreBytes += S.size();

  double HostEpochs = static_cast<double>(SC.Fleet.Hosts) * SC.Fleet.Epochs;
  std::vector<double> Rates;
  for (double S : PassS)
    Rates.push_back(HostEpochs / S);
  logRounds(RawPassS, Probes);
  Res.metric("setup_s", SetupS * HostProbe::ReferenceS / Probes.front(), "s");
  Res.metric("pgo_cycle_s", median(PassS), "s");
  Res.metric("eval_cycles", static_cast<double>(EvalCycles), "cycles");
  Res.metric("code_size_bytes", static_cast<double>(CodeSize), "bytes");
  Res.metric("block_overlap", Overlap, "ratio");
  Res.metric("peak_rss_mb", PeakRss, "MiB");
  Res.metric("ingest_rate", median(Rates), "host-epochs/s");
  Res.metric("store_bytes", static_cast<double>(StoreBytes), "bytes");
}

//===----------------------------------------------------------------------===//
// Traced path: the program's layer calls in the program's order.
//===----------------------------------------------------------------------===//

class TracedRun {
public:
  Tracer T;
  Counts N;
  Result &Res;

  explicit TracedRun(Result &Res) : Res(Res) {}

  std::unique_ptr<Module> generate(const WorkloadConfig &W) {
    return T.span("workload.generate", [&] { return generateProgram(W); });
  }
  std::vector<int64_t> input(const WorkloadConfig &W, uint64_t Seed,
                             double Shift = 0.0) {
    return T.span("workload.generate",
                  [&] { return generateInput(W, Seed, Shift); });
  }
  RunResult run(const Binary &Bin, std::vector<int64_t> &Mem,
                const ExecConfig &EC) {
    RunResult R =
        T.span("sim.execute", [&] { return execute(Bin, "main", Mem, EC); });
    if (T.inMeasured())
      N.Instructions += R.Instructions;
    return R;
  }

  /// inferModuleProfile with the flow check after it.
  void infer(Module &M) {
    auto Solvers = classifySolvers(M);
    T.span("inference", [&] { inferModuleProfile(M); });
    FlowTally F = checkFlow(M, Solvers);
    if (F.BrokenSolved)
      Res.fail("min-cost-flow function " + F.FirstBroken +
               " does not conserve flow after inference");
    if (T.inMeasured()) {
      N.Flow += F;
      N.InferenceFunctions += F.Solved + F.Fallback;
    }
  }

  /// buildWithPGO, layer by layer (in-memory transport).
  BuildResult build(const Module &Source, const BuildConfig &Config,
                    const ProfileBundle *Profile) {
    return T.span("build", [&] {
      BuildResult Result;
      Result.IR = Source.clone();
      Module &M = *Result.IR;
      bool Probed = Config.Variant == PGOVariant::CSSPGOProbeOnly ||
                    Config.Variant == PGOVariant::CSSPGOFull ||
                    Config.Variant == PGOVariant::Trace;
      if (Probed)
        T.span("probe.insert", [&] {
          insertProbes(M, AnchorKind::PseudoProbe);
          Result.ProbeDescs = ProbeTable::fromModule(M);
        });
      bool Has = Profile && Profile->Has;
      if (Has) {
        Result.Loader = T.span("loader.apply", [&] {
          return Profile->IsCS
                     ? loadContextProfile(M, Profile->CS, Config.Loader)
                     : loadFlatProfile(M, Profile->Flat, Profile->IsInstr,
                                       Config.Loader);
        });
        if (T.inMeasured()) {
          N.Annotated += Result.Loader.FunctionsAnnotated;
          N.LoaderInlines += Result.Loader.InlinedCallsites;
          N.StaleMatched += Result.Loader.StaleMatched;
          N.CountsRecovered += Result.Loader.StaleCountsRecovered;
        }
        if (Config.EnableInference)
          infer(M);
      }
      T.span("ir.verify", [&] { verifyOrDie(M, "after profile loading"); });
      InlineParams Inline = Config.Inline;
      if (Has && Result.Loader.HotThresholdUsed)
        Inline.HotCallsiteCount = Result.Loader.HotThresholdUsed;
      Result.Inliner =
          T.span("opt.inliner", [&] { return runBottomUpInliner(M, Inline); });
      T.span("ir.verify", [&] { verifyOrDie(M, "after bottom-up inlining"); });
      if (Has && Config.EnableInference)
        infer(M);
      PassStats Mid =
          T.span("opt.mid", [&] { return runMidLevelPipeline(M, Config.Opt); });
      PassStats Late =
          T.span("opt.late", [&] { return runLatePipeline(M, Config.Opt); });
      Result.Bin = T.span("codegen", [&] { return compileToBinary(M); });
      if (T.inMeasured()) {
        N.Inlined += Result.Inliner.NumInlined;
        N.MidChanges += Mid.total();
        N.LateChanges += Late.total();
        N.IRInsts += irInstructions(M);
        N.TextBytes += Result.Bin->textSize();
      }
      return Result;
    });
  }

  VerifyReport verify(const ContextProfile &CS, const ProbeTable *Probes) {
    VerifierOptions VO;
    VO.Level = VerifyLevel::Full;
    VO.Probes = Probes;
    VerifyReport R =
        T.span("verify", [&] { return verifyContextProfile(CS, VO); });
    if (T.inMeasured())
      N.ContextsChecked += R.ContextsChecked;
    if (!R.ok())
      Res.fail("profile verification failed: " + R.str());
    return R;
  }

  /// PGODriver's collectProfile for full CSSPGO, layer by layer.
  ProfileBundle collect(const ExperimentConfig &C, const BuildResult &Prof) {
    return T.span("collect", [&] {
      std::vector<int64_t> Mem = input(C.Workload, C.TrainSeed);
      ExecConfig EC;
      EC.Costs = C.Costs;
      EC.Sampler.Enabled = true;
      EC.Sampler.PeriodCycles = C.SamplePeriodCycles;
      EC.Sampler.Precise = C.PreciseSampling;
      EC.Sampler.Seed = C.TrainSeed;
      EC.Trace = C.Trace;
      RunResult Train = run(*Prof.Bin, Mem, EC);
      ProfGenOptions GO;
      GO.Kind = ProfGenKind::CS;
      GO.InferMissingFrames = C.InferMissingFrames;
      GO.Parallelism = C.Parallelism;
      GO.Verify = VerifyLevel::Off;
      ProfGenResult R = T.span("profgen.generate", [&] {
        return ProfileGenerator(*Prof.Bin, &Prof.ProbeDescs, GO)
            .generate(Train.Samples);
      });
      verify(R.CS, &Prof.ProbeDescs);
      ProfileBundle B;
      B.Has = true;
      B.IsCS = true;
      B.CS = std::move(R.CS);
      if (T.inMeasured()) {
        N.ProfgenSamples += R.Stats.Samples;
        N.ProfgenContexts += B.CS.numProfiles();
      }
      TrimStats TS = T.span("profile.trim", [&] {
        uint64_t Threshold = B.CS.totalSamples() /
                             std::max<uint64_t>(1, C.TrimThresholdDivisor);
        return trimColdContexts(B.CS, std::max<uint64_t>(Threshold, 2));
      });
      PreInlinerStats PS = T.span("preinline", [&] {
        FuncSizeTable Sizes = extractFuncSizes(*Prof.Bin);
        return runPreInliner(B.CS, Sizes);
      });
      if (T.inMeasured()) {
        N.ContextsTrimmed += TS.ContextsMerged;
        N.PreInlines += PS.ContextsMarkedInlined;
      }
      verify(B.CS, &Prof.ProbeDescs);
      return B;
    });
  }

  std::vector<uint64_t> evalRuns(const ExperimentConfig &C, const Binary &B) {
    return T.span("eval", [&] {
      std::vector<uint64_t> Cycles;
      for (unsigned E = 0; E != C.EvalRuns; ++E) {
        std::vector<int64_t> Mem =
            input(C.Workload, C.EvalSeedBase + E, C.EvalShift);
        ExecConfig EC;
        EC.Costs = C.Costs;
        Cycles.push_back(run(B, Mem, EC).Cycles);
      }
      return Cycles;
    });
  }

  /// PGODriver::run(None), the baseline (set-up).
  void baseline(const ExperimentConfig &C, const Module &Src) {
    BuildConfig BC = driverBuildConfig(C, PGOVariant::None);
    BuildResult Prof = build(Src, BC, nullptr);
    std::vector<int64_t> Mem = input(C.Workload, C.TrainSeed);
    ExecConfig EC;
    EC.Costs = C.Costs;
    run(*Prof.Bin, Mem, EC);
    BuildResult Opt = build(Src, BC, nullptr);
    evalRuns(C, *Opt.Bin);
  }

  static BuildConfig driverBuildConfig(const ExperimentConfig &C,
                                       PGOVariant V) {
    BuildConfig B;
    B.Variant = V;
    B.Opt = C.Opt;
    B.Inline = C.Inline;
    B.Loader = C.Loader;
    B.EnableInference = C.EnableInference;
    B.Loader.Verify = VerifyLevel::Full;
    if (V == PGOVariant::CSSPGOFull)
      B.Loader.InlineHotContexts = false;
    return B;
  }

  /// PGODriver::run(CSSPGOFull) [+ stackPostLink], then the store folds.
  CellOutput cycle(const ExperimentConfig &C, const Module &Src,
                   bool PostLink) {
    CellOutput Out;
    BuildConfig BC = driverBuildConfig(C, PGOVariant::CSSPGOFull);
    BuildResult Prof =
        T.span("build.profiling", [&] { return build(Src, BC, nullptr); });
    ProfileBundle Profile = collect(C, Prof);
    BuildResult Opt =
        T.span("build.optimized", [&] { return build(Src, BC, &Profile); });
    if (Opt.Loader.VerifyViolations)
      Res.fail("loader-side profile verification failed: " +
               Opt.Loader.VerifyFirst);
    Out.Images.push_back(binaryImage(*Opt.Bin));
    Out.EvalCycles.push_back(evalRuns(C, *Opt.Bin));
    Out.CodeSize = Opt.Bin->textSize();
    if (PostLink) {
      std::unique_ptr<Binary> Shipped = postLink(C, Opt);
      Out.Images.push_back(binaryImage(*Shipped));
      Out.EvalCycles.push_back(evalRuns(C, *Shipped));
      Out.CodeSize = Shipped->textSize();
    }
    Out.ProfileText = serializeContextProfile(Profile.CS);
    Out.Store = T.span("store.ingest", [&] { return foldProfile(Profile); });
    if (T.inMeasured())
      N.StoreBytes += Out.Store.size();
    return Out;
  }

  /// PGODriver::stackPostLink with the training input, layer by layer.
  std::unique_ptr<Binary> postLink(const ExperimentConfig &C,
                                   const BuildResult &Opt) {
    return T.span("postlink.stack", [&] {
      const Binary &OptBin = *Opt.Bin;
      std::vector<int64_t> Mem = input(C.Workload, C.TrainSeed, 0.0);
      ExecConfig EC;
      EC.Sampler.Enabled = true;
      EC.Sampler.PeriodCycles = C.SamplePeriodCycles;
      EC.Sampler.Precise = C.PreciseSampling;
      EC.Sampler.Seed = C.TrainSeed;
      RunResult Train = run(OptBin, Mem, EC);
      FlatProfile FnProf;
      bool HaveFn = false;
      if (!OptBin.Probes.empty()) {
        ProfGenOptions GO;
        GO.Kind = ProfGenKind::ProbeOnly;
        GO.Parallelism = C.Parallelism;
        GO.Verify = VerifyLevel::Off;
        ProfGenResult R = T.span("profgen.generate", [&] {
          return ProfileGenerator(OptBin, &Opt.ProbeDescs, GO)
              .generate(Train.Samples);
        });
        VerifierOptions VO;
        VO.Level = VerifyLevel::Full;
        VO.Probes = &Opt.ProbeDescs;
        VerifyReport VR =
            T.span("verify", [&] { return verifyFlatProfile(R.Flat, VO); });
        N.ProfgenSamples += R.Stats.Samples;
        N.ContextsChecked += VR.FunctionsChecked;
        if (VR.ok()) {
          FnProf = std::move(R.Flat);
          HaveFn = true;
        }
      }
      Expected<postlink::PostLinkResult> PL = T.span("postlink", [&] {
        return postlink::runPostLink(OptBin, Train.Samples,
                                     HaveFn ? &FnProf : nullptr,
                                     Opt.IR.get(), {});
      });
      if (!PL) {
        Res.fail("post-link rewrite failed: " + PL.status().message());
        return std::make_unique<Binary>(OptBin);
      }
      N.Reordered += PL->Stats.FuncsReordered;
      N.Split += PL->Stats.FuncsSplit;
      N.Folded += PL->Stats.FuncsFolded;
      std::vector<int64_t> MemV = input(C.Workload, C.TrainSeed);
      RunResult Variant = run(OptBin, MemV, {});
      std::vector<int64_t> MemR = input(C.Workload, C.TrainSeed);
      RunResult Rewrite = run(*PL->Bin, MemR, {});
      bool Kept = Rewrite.ExitValue == Variant.ExitValue &&
                  Rewrite.Cycles < Variant.Cycles;
      N.Kept += Kept;
      return Kept ? std::move(PL->Bin) : std::make_unique<Binary>(OptBin);
    });
  }
};

void tracedPGOWorkload(const std::vector<Cell> &Cells, bool PostLink,
                       uint64_t Seed, Result &Res, TracedRun &TR) {
  std::vector<ExperimentConfig> Configs;
  std::vector<std::unique_ptr<Module>> Sources;
  TR.T.span("setup", [&] {
    for (const Cell &C : Cells) {
      Configs.push_back(cellConfig(C, Seed));
      Sources.push_back(TR.generate(Configs.back().Workload));
      TR.baseline(Configs.back(), *Sources.back());
    }
  });
  std::vector<CellOutput> Traced;
  TR.T.span("measured", [&] {
    for (size_t I = 0; I != Cells.size(); ++I)
      Traced.push_back(TR.T.span(std::string("cell.") + Cells[I].Preset, [&] {
        return TR.cycle(Configs[I], *Sources[I], PostLink);
      }));
  });
  Res.Attempted += Cells.size();

  // The untraced entry points must produce exactly the same outputs.
  std::vector<std::unique_ptr<PGODriver>> Drivers;
  for (const Cell &C : Cells)
    Drivers.push_back(std::make_unique<PGODriver>(cellConfig(C, Seed)));
  double Cycle = 0;
  std::vector<double> FoldS;
  std::vector<CellOutput> Untraced =
      untracedRound(Drivers, PostLink, Cycle, FoldS);
  for (size_t I = 0; I != Cells.size(); ++I)
    if (!sameCell(Traced[I], Untraced[I]))
      Res.fail(std::string(Cells[I].Preset) +
               ": traced and untraced paths differ (binaries, eval cycles, "
               "profile or store)");
  double Folds = 0;
  for (double F : FoldS)
    Folds += F;
  std::fprintf(stderr, "pgobench: untraced cycle %.3f s + folds %.3f s\n",
               Cycle, Folds);
}

void tracedFleetWorkload(uint64_t Seed, Result &Res, TracedRun &TR) {
  ServiceConfig SC = fleetConfig(Seed);
  FleetSim Fleet(SC.Fleet);
  struct Rel {
    std::shared_ptr<const Module> Source;
    BuildResult Build;
  };
  struct Svc {
    WorkloadConfig W;
    std::unique_ptr<Module> Current;
    std::shared_ptr<Rel> Release;
    unsigned Releases = 1;
    std::string Store;
    std::vector<uint64_t> EpochTotals;
  };
  auto Deploy = [&](Svc &S) {
    auto R = std::make_shared<Rel>();
    R->Source = std::shared_ptr<const Module>(S.Current->clone().release());
    BuildConfig BC;
    BC.Variant = PGOVariant::CSSPGOFull;
    R->Build = TR.T.span("release", [&] {
      return TR.build(*S.Current, BC, nullptr);
    });
    S.Release = std::move(R);
  };
  std::vector<Svc> Services(SC.Fleet.Services);
  TR.T.span("setup", [&] {
    for (unsigned S = 0; S != SC.Fleet.Services; ++S) {
      Services[S].W = Fleet.serviceWorkload(S);
      Services[S].Current = TR.generate(Services[S].W);
      Deploy(Services[S]);
    }
  });

  TR.T.span("measured", [&] {
    for (unsigned E = 0; E != SC.Fleet.Epochs; ++E) {
      if (SC.DriftEveryEpochs && E && E % SC.DriftEveryEpochs == 0)
        for (Svc &S : Services) {
          TR.T.span("workload.generate", [&] {
            applyCFGDrift(*S.Current,
                          S.Releases % 2 ? CFGDriftKind::GuardInsert
                                         : CFGDriftKind::BlockSplit,
                          E);
          });
          Deploy(S);
          ++S.Releases;
        }
      std::vector<std::shared_ptr<Rel>> Rels;
      for (Svc &S : Services)
        Rels.push_back(S.Release);
      // Every host of the epoch, in ascending host order.
      std::vector<ContextProfile> Hosts;
      std::vector<HostTask> Tasks = Fleet.epochTasks(E);
      for (const HostTask &Task : Tasks)
        Hosts.push_back(TR.T.span("host", [&] {
          const Rel &R = *Rels[Task.Service];
          std::vector<int64_t> Mem =
              TR.input(Services[Task.Service].W, Task.InputSeed);
          ExecConfig EC;
          EC.Sampler.Enabled = true;
          EC.Sampler.PeriodCycles = Task.SamplePeriodCycles;
          EC.Sampler.Precise = true;
          EC.Sampler.Seed = Task.SamplerSeed;
          RunResult Run = TR.run(*R.Build.Bin, Mem, EC);
          ProfGenOptions GO;
          GO.Kind = ProfGenKind::CS;
          GO.Parallelism = 1;
          GO.Verify = VerifyLevel::Off;
          ProfGenResult PR = TR.T.span("profgen.generate", [&] {
            return ProfileGenerator(*R.Build.Bin, &R.Build.ProbeDescs, GO)
                .generate(Run.Samples);
          });
          TR.N.ProfgenSamples += PR.Stats.Samples;
          TR.N.ProfgenContexts += PR.CS.numProfiles();
          return std::move(PR.CS);
        }));
      // Fold each service's hosts (ascending host order) into its store.
      for (unsigned S = 0; S != SC.Fleet.Services; ++S)
        TR.T.span("fold", [&] {
          Svc &V = Services[S];
          std::vector<ContextProfileView> Views;
          uint64_t EpochSamples = 0;
          for (const HostTask &Task : Tasks)
            if (Task.Service == S) {
              EpochSamples += Hosts[Task.Host].totalSamples();
              Views.push_back(contextViewOf(Hosts[Task.Host]));
            }
          ContextProfile Epoch = TR.T.span("profile.reduce", [&] {
            std::vector<const ContextProfileView *> Ptrs;
            for (const ContextProfileView &HV : Views)
              Ptrs.push_back(&HV);
            MergeStats MS;
            return contextProfileOf(
                mergeContextViews(Ptrs, MS, /*IntoEmptyDst=*/true));
          });
          if (!EpochSamples) {
            Res.fail(Fleet.serviceName(S) + ": an epoch produced no samples");
            return;
          }
          IngestOptions IO;
          IO.DecayPermille = SC.DecayPermille;
          IO.Timestamp = Fleet.timestamp(E);
          IO.Write.CompactNames = SC.CompactNames;
          IO.Verify = VerifyLevel::Full;
          IngestResult IR = TR.T.span(
              "store.ingest", [&] { return ingestEpoch(V.Store, Epoch, IO); });
          TR.N.ContextsChecked += IR.Verify.ContextsChecked;
          if (!IR.Ok) {
            Res.fail(Fleet.serviceName(S) + ": ingest failed: " + IR.Error);
            return;
          }
          V.EpochTotals.push_back(EpochSamples);
          // The freshness probe: this epoch's release annotated from the
          // store.
          Expected<ProfileStore> St = TR.T.span(
              "store.open", [&] { return ProfileStore::openBorrowed(V.Store); });
          if (!St) {
            Res.fail(Fleet.serviceName(S) + ": store does not open");
            return;
          }
          std::unique_ptr<Module> Target = Rels[S]->Source->clone();
          TR.T.span("probe.insert",
                    [&] { insertProbes(*Target, AnchorKind::PseudoProbe); });
          St->resolveNames(*Target);
          Expected<LoaderStats> Probe = TR.T.span("loader.store_apply", [&] {
            return loadProfileFromStore(*Target, *St, LoaderOptions(), true);
          });
          if (Probe) {
            TR.N.StaleMatched += Probe->StaleMatched;
            TR.N.CountsRecovered += Probe->StaleCountsRecovered;
          }
        });
    }
  });
  Res.Attempted += 1;

  // The untraced (sharded) service must write the same store bytes.
  ProfileService Untraced(SC);
  Clock::time_point T0 = Clock::now();
  if (Status St = Untraced.run(SC.Fleet.Epochs); !St)
    Res.fail("service pass failed: " + St.message());
  std::fprintf(stderr, "pgobench: untraced pass %.3f s\n", secondsSince(T0));
  TR.N.QueueHighWater = Untraced.snapshot().QueueHighWater;
  std::vector<std::vector<uint64_t>> Totals = storeEpochTotals(Untraced, Res);
  for (unsigned S = 0; S != SC.Fleet.Services; ++S) {
    std::string Why;
    if (Untraced.store(S) != Services[S].Store)
      Res.fail(Fleet.serviceName(S) +
               ": traced and untraced stores differ");
    if (Totals[S] != Services[S].EpochTotals)
      Res.fail(Fleet.serviceName(S) +
               ": store epoch totals differ from the host totals");
    if (!checkStore(Services[S].Store, Services[S].EpochTotals,
                    SC.DecayPermille, Why))
      Res.fail(Fleet.serviceName(S) + ": " + Why);
    TR.N.StoreBytes += Services[S].Store.size();
  }
}

void reportLayers(const TracedRun &TR, Result &Res) {
  const Tracer &T = TR.T;
  const Counts &N = TR.N;
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  double ExecMs = T.ms("sim.execute");
  Res.metric("workload.generate_ms", T.ms("workload.generate"), "ms");
  Res.metric("probe.insert_ms", T.ms("probe.insert"), "ms");
  Res.metric("sim.execute_ms", ExecMs, "ms");
  Res.metric("sim.mips", ExecMs > 0 ? D(N.Instructions) / (ExecMs * 1000) : 0,
             "MIPS");
  Res.metric("profgen.generate_ms", T.ms("profgen.generate"), "ms");
  Res.metric("profgen.samples", D(N.ProfgenSamples), "count");
  Res.metric("profgen.contexts", D(N.ProfgenContexts), "count");
  Res.metric("profile.trim_ms", T.ms("profile.trim"), "ms");
  Res.metric("profile.contexts_trimmed", D(N.ContextsTrimmed), "count");
  Res.metric("profile.reduce_ms", T.ms("profile.reduce"), "ms");
  Res.metric("preinline.ms", T.ms("preinline"), "ms");
  Res.metric("preinline.inlines", D(N.PreInlines), "count");
  Res.metric("verify.ms", T.ms("verify"), "ms");
  Res.metric("verify.contexts_checked", D(N.ContextsChecked), "count");
  Res.metric("loader.apply_ms", T.ms("loader.apply"), "ms");
  Res.metric("loader.annotated", D(N.Annotated), "count");
  Res.metric("loader.inlines", D(N.LoaderInlines), "count");
  Res.metric("loader.store_apply_ms", T.ms("loader.store_apply"), "ms");
  Res.metric("loader.stale_matched", D(N.StaleMatched), "count");
  Res.metric("loader.counts_recovered", D(N.CountsRecovered), "count");
  Res.metric("inference.ms", T.ms("inference"), "ms");
  Res.metric("inference.functions", D(N.InferenceFunctions), "count");
  Res.metric("inference.fallback_functions", D(N.Flow.Fallback), "count");
  Res.metric("inference.nonconserving_functions", D(N.Flow.NonConserving),
             "count");
  Res.metric("opt.inliner_ms", T.ms("opt.inliner"), "ms");
  Res.metric("opt.inlined", D(N.Inlined), "count");
  Res.metric("opt.mid_ms", T.ms("opt.mid"), "ms");
  Res.metric("opt.mid_changes", D(N.MidChanges), "count");
  Res.metric("opt.late_ms", T.ms("opt.late"), "ms");
  Res.metric("opt.late_changes", D(N.LateChanges), "count");
  Res.metric("opt.ir_insts", D(N.IRInsts), "count");
  Res.metric("codegen.ms", T.ms("codegen"), "ms");
  Res.metric("codegen.text_bytes", D(N.TextBytes), "bytes");
  Res.metric("postlink.ms", T.ms("postlink"), "ms");
  Res.metric("postlink.reordered", D(N.Reordered), "count");
  Res.metric("postlink.split", D(N.Split), "count");
  Res.metric("postlink.folded", D(N.Folded), "count");
  Res.metric("postlink.kept", D(N.Kept), "count");
  Res.metric("store.ingest_ms", T.ms("store.ingest"), "ms");
  Res.metric("store.open_ms", T.ms("store.open"), "ms");
  Res.metric("store.bytes", D(N.StoreBytes), "bytes");
  Res.metric("service.queue_high_water", D(N.QueueHighWater), "count");
}

/// Layer self-time shares of the measured region, for the README table.
void printShares(const TracedRun &TR) {
  double Total = TR.T.rootSeconds("measured") * 1000;
  std::fprintf(stderr, "pgobench: traced measured region %.3f s\n",
               Total / 1000);
  for (const auto &[Name, Ms] : TR.T.selfMs())
    if (Ms > 0)
      std::fprintf(stderr, "pgobench:   %-22s %9.1f ms self\n", Name.c_str(),
                   Ms);
}

int usage() {
  std::fprintf(stderr,
               "usage: pgobench --workload server|client|fleet --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  ProcessStart = Clock::now();
  std::string Workload, TraceFile;
  uint64_t Seed = 0;
  double Seconds = -1;
  int Trace = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      Workload = V;
    else if (K == "--seed")
      Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      Trace = std::atoi(V.c_str());
    else if (K == "--trace-file")
      TraceFile = V;
    else
      return usage();
  }
  if (argc % 2 == 0 || Seconds < 0 || (Trace != 0 && Trace != 1) ||
      (Workload != "server" && Workload != "client" && Workload != "fleet"))
    return usage();

  Result Res;
  if (Trace) {
    TracedRun TR(Res);
    if (Workload == "fleet")
      tracedFleetWorkload(Seed, Res, TR);
    else
      tracedPGOWorkload(Workload == "server" ? ServerCells : ClientCells,
                        Workload == "client", Seed, Res, TR);
    reportLayers(TR, Res);
    printShares(TR);
    if (!TraceFile.empty()) {
      std::ofstream Out(TraceFile, std::ios::binary | std::ios::trunc);
      Out << TR.T.chromeJSON();
      if (!Out)
        Res.fail("cannot write the trace file " + TraceFile);
    }
  } else if (Workload == "fleet") {
    runFleetWorkload(Seed, Seconds, Res);
  } else {
    runPGOWorkload(Workload == "server" ? ServerCells : ClientCells,
                   Workload == "client", Seed, Seconds, Res);
  }
  if (!Res.Correct)
    std::fprintf(stderr, "pgobench: check failed: %s\n", Res.Why.c_str());
  std::printf("%s\n", Res.json().c_str());
  return 0;
}
