//===- Setup.cpp - populations, set-up leg and statistics ---------------------===//

#include "Harness.h"

#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "tablegen/Serialize.h"
#include "vaxsim/Simulator.h"
#include "workload/ProgramGen.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <optional>
#include <thread>

using namespace pb;

double pb::calibrate() {
  static const std::vector<std::string> Keys = [] {
    std::vector<std::string> K;
    for (uint32_t I = 0; I < 20000; ++I) {
      char Buf[32];
      snprintf(Buf, sizeof(Buf), "key%08x_%u", I * 2654435761u, I);
      K.push_back(Buf);
    }
    return K;
  }();
  uint64_t Start = nowNs();
  std::map<std::string, uint64_t> M;
  for (uint64_t Rep = 0; Rep < 2; ++Rep)
    for (const std::string &K : Keys)
      M[K] += K.size() + Rep;
  double Seconds = secondsSince(Start);
  // Every key was inserted; the test keeps the map from being elided.
  return M.size() == Keys.size() ? Seconds : -1;
}

double pb::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

Tail pb::tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N <= 10) {
    T.Value = V.back();
    return T;
  }
  // Ten samples strictly above index N-11 (the 11th largest): the highest
  // order statistic with ten samples beyond it.
  T.Value = V[N - 11];
  T.Percentile = 100.0 * static_cast<double>(N - 10) / static_cast<double>(N);
  return T;
}

std::map<std::string, SelfCost>
pb::selfCosts(const std::vector<Span> &Spans) {
  std::vector<uint64_t> ChildNs(Spans.size(), 0), ChildAllocs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0) {
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
      ChildAllocs[S.Parent] += S.Allocs;
    }
  std::map<std::string, SelfCost> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    SelfCost &C = Out[S.Name];
    uint64_t Dur = S.EndNs - S.StartNs;
    C.TotalSeconds += static_cast<double>(Dur) * 1e-9;
    C.Seconds += static_cast<double>(Dur - ChildNs[I]) * 1e-9;
    C.Allocs += S.Allocs - ChildAllocs[I];
  }
  return Out;
}

bool pb::writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Base = std::min(Base, S.StartNs);
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    snprintf(Buf, sizeof(Buf),
             "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
             "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%d,"
             "\"allocs\":%llu}}",
             I ? "," : "", S.Name, static_cast<double>(S.StartNs - Base) / 1e3,
             static_cast<double>(S.EndNs - S.StartNs) / 1e3,
             static_cast<unsigned long long>(S.Id), S.Parent,
             static_cast<unsigned long long>(S.Allocs));
    Out << Buf << "\n";
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

double pb::spanCostSeconds() {
  SpanLog Log;
  constexpr int N = 20000;
  uint64_t Start = nowNs();
  for (int I = 0; I < N; ++I) {
    Scoped S(&Log, "probe", 0);
  }
  return secondsSince(Start) / N;
}

namespace {

/// splitmix64: spreads small benchmark seeds over the generator's seed
/// space, so seeds 1, 2, 3 give unrelated populations.
uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// The program generated from \p GenSeed, if it parses and its
/// interpreter run finishes within InterpStepCap.
std::optional<Program> candidate(std::string Source, uint64_t GenSeed) {
  gg::Program P;
  gg::DiagnosticSink Diags;
  if (!gg::compileMiniC(Source, P, Diags))
    return std::nullopt;
  gg::InterpResult R = gg::interpret(P, "main", InterpStepCap);
  if (!R.Ok)
    return std::nullopt;
  Program Prog;
  Prog.Source = std::move(Source);
  Prog.GenSeed = GenSeed;
  Prog.ExpectedOutput = std::move(R.Output);
  Prog.ExpectedReturn = R.ReturnValue;
  Prog.InterpSteps = R.Steps;
  return Prog;
}

/// Takes the first \p Count accepted candidates in generator-seed order
/// from \p First on. Candidates are screened a few at a time on parallel
/// threads (the screening is untimed set-up); the result is the same as a
/// serial draw.
template <typename MakeSource>
std::vector<Program> draw(uint64_t First, int Count, MakeSource Make,
                          uint64_t *Screened) {
  constexpr unsigned Width = 4;
  std::vector<Program> Out;
  uint64_t Base = First;
  for (; static_cast<int>(Out.size()) < Count; Base += Width) {
    std::vector<std::optional<Program>> Batch(Width);
    forEachParallel(Width, [&](size_t I) {
      Batch[I] = candidate(Make(Base + I), Base + I);
    });
    for (std::optional<Program> &P : Batch)
      if (P && static_cast<int>(Out.size()) < Count)
        Out.push_back(std::move(*P));
  }
  if (Screened)
    *Screened = Base - First;
  return Out;
}

} // namespace

std::vector<Program> pb::drawLargePrograms(uint64_t Seed, int Count,
                                           uint64_t *Screened) {
  return draw(
      mix(Seed) >> 16, Count,
      [](uint64_t S) { return gg::generateLargeProgram(S, 10); }, Screened);
}

std::vector<Program> pb::drawServePrograms(uint64_t Seed, int Count,
                                           uint64_t *Screened) {
  return draw(mix(Seed ^ 0x5E57E) >> 16, Count, [](uint64_t S) {
    // gg-load's population shape: 4-6 functions of 6-10 statements each,
    // other options at their defaults.
    gg::GenOptions G;
    G.Functions = 4 + static_cast<int>(S % 3);
    G.StmtsPerFunction = 6 + static_cast<int>(S % 5);
    return gg::generateProgram(S, G);
  }, Screened);
}

void pb::forEachParallel(size_t N, const std::function<void(size_t)> &F) {
  constexpr size_t Width = 4;
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Width; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = T; I < N; I += Width)
        F(I);
    });
  for (std::thread &T : Threads)
    T.join();
}

void pb::resetPeakRss() {
  // Give the screening threads' freed heap back first, so it does not
  // count as the workload's. Then "5" clears the VmHWM watermark (Linux 4.0 and later); where that is
  // not possible the peak keeps counting from process start.
  malloc_trim(0);
  if (FILE *F = fopen("/proc/self/clear_refs", "w")) {
    fputs("5", F);
    fclose(F);
  }
}

double pb::peakRssMb() {
  double Kb = 0;
  if (FILE *F = fopen("/proc/self/status", "r")) {
    char Line[256];
    while (fgets(Line, sizeof(Line), F))
      if (sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
        break;
    fclose(F);
  }
  return Kb / 1024;
}

double pb::kib(const std::vector<Program> &Progs) {
  double Bytes = 0;
  for (const Program &P : Progs)
    Bytes += static_cast<double>(P.Source.size());
  return Bytes / 1024;
}

bool pb::simCheck(const Program &P, const std::string &Asm, uint64_t &Cycles,
                  std::string &Why) {
  gg::SimResult R = gg::assembleAndRun(Asm);
  if (!R.Ok) {
    Why = "simulator: " + R.Error;
    return false;
  }
  Cycles = R.Cycles;
  if (R.Output != P.ExpectedOutput) {
    Why = "simulated output differs from the interpreter's";
    return false;
  }
  if (R.ReturnValue != P.ExpectedReturn) {
    Why = "simulated return value differs from the interpreter's";
    return false;
  }
  return true;
}

bool pb::runSetup(Setup &S, std::string &Err) {
  std::vector<double> Total, Raw, Build, Verify;
  for (int I = 0; I < SetupReps; ++I) {
    S.Target.reset();
    S.Service.reset();
    uint64_t A0 = threadAllocs();
    uint64_t T0 = nowNs();
    S.Target = gg::VaxTarget::create(Err);
    uint64_t T1 = nowNs();
    uint64_t BuildAllocs = threadAllocs() - A0;
    if (!S.Target)
      return false;
    S.Service = gg::CompileService::create(Err);
    uint64_t T2 = nowNs();
    if (!S.Service)
      return false;
    // The serializer self-check CompileService::create runs, timed on its
    // own: save the tables and load them back.
    uint64_t A1 = threadAllocs();
    uint64_t V0 = nowNs();
    std::string Text =
        gg::serializeTables(S.Target->grammar(), S.Target->build().Tables);
    gg::LRTables Loaded;
    gg::DiagnosticSink Diags;
    if (!gg::deserializeTables(Text, S.Target->grammar(), Loaded, Diags)) {
      Err = "table self-verification failed: " + Diags.renderAll();
      return false;
    }
    uint64_t V1 = nowNs();
    uint64_t A2 = threadAllocs();
    Raw.push_back(static_cast<double>(T2 - T0) * 1e-9);
    Total.push_back(Raw.back() / speedFactor(calibrate()));
    Build.push_back(static_cast<double>(T1 - T0) * 1e-9);
    Verify.push_back(static_cast<double>(V1 - V0) * 1e-9);
    // One target build plus one verification (the service's own build is
    // a second copy of the first).
    S.Allocs = BuildAllocs + (A2 - A1);
  }
  S.SetupSeconds = median(Total);
  S.RawSetupSeconds = median(Raw);
  S.BuildSeconds = median(Build);
  S.VerifySeconds = median(Verify);
  return true;
}
