//===- Batch.cpp - closed-loop compile legs and the traced layer walk ---------===//
//
// The closed loop compiles each program through the GG leg (front end +
// GGCodeGenerator::compile) and the PCC leg (front end +
// PccCodeGenerator::compile), interleaved program by program so both legs
// see the same machine state. The traced walk takes the same programs
// through the generator's public layer calls one at a time, recording a
// span around each, and must emit exactly what GGCodeGenerator::compile
// emits.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cg/CodeGenerator.h"
#include "cg/Transform.h"
#include "frontend/Parser.h"
#include "ir/Linearize.h"
#include "pcc/PccCodeGen.h"
#include "support/Strings.h"
#include "vax/VaxSemantics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

using namespace pb;

namespace {

bool parse(const Program &Prog, gg::Program &P, std::string &Err) {
  gg::DiagnosticSink Diags;
  if (gg::compileMiniC(Prog.Source, P, Diags))
    return true;
  Err = "front end: " + Diags.renderAll();
  return false;
}

/// Seconds spent in the front end and in the code generator for one leg.
struct LegTime {
  double FrontEnd = 0;
  double CodeGen = 0;
};

bool ggLeg(const gg::VaxTarget &T, const Program &Prog, std::string &Asm,
           size_t &Insts, LegTime &Time, std::string &Err) {
  uint64_t T0 = nowNs();
  gg::Program P;
  if (!parse(Prog, P, Err))
    return false;
  uint64_t T1 = nowNs();
  gg::GGCodeGenerator CG(T);
  bool Ok = CG.compile(P, Asm, Err);
  uint64_t T2 = nowNs();
  Time.FrontEnd = static_cast<double>(T1 - T0) * 1e-9;
  Time.CodeGen = static_cast<double>(T2 - T1) * 1e-9;
  Insts = CG.stats().Instructions;
  return Ok;
}

bool pccLeg(const Program &Prog, std::string &Asm, LegTime &Time,
            std::string &Err) {
  uint64_t T0 = nowNs();
  gg::Program P;
  if (!parse(Prog, P, Err))
    return false;
  uint64_t T1 = nowNs();
  gg::PccCodeGenerator CG;
  bool Ok = CG.compile(P, Asm, Err);
  uint64_t T2 = nowNs();
  Time.FrontEnd = static_cast<double>(T1 - T0) * 1e-9;
  Time.CodeGen = static_cast<double>(T2 - T1) * 1e-9;
  return Ok;
}

/// Deterministic counts of one walk over the population.
struct WalkCounts {
  uint64_t Tokens = 0;
  uint64_t Steps = 0;
  uint64_t Trees = 0;
  uint64_t Blocked = 0;
  uint64_t Spills = 0;
  bool operator==(const WalkCounts &) const = default;
};

/// The layer walk: the body of GGCodeGenerator::compile for one thread,
/// recovery on, rebuilt from the public calls of each layer. Spans mark
/// the layer boundaries; everything between them is the driver's glue and
/// lands in cg.walk's self time (cg.unattributed_s).
bool walkProgram(const gg::VaxTarget &T, const Program &Prog, uint64_t Id,
                 SpanLog *Log, std::string &Asm, WalkCounts &C,
                 uint64_t &WalkStartNs, std::string &Err) {
  gg::Program P;
  {
    Scoped S(Log, "frontend", Id);
    if (!parse(Prog, P, Err))
      return false;
  }
  WalkStartNs = nowNs();
  Scoped Walk(Log, "cg.walk", Id);
  gg::AsmEmitter Emit(P.Syms);
  gg::emitDataSection(P, Emit);
  Emit.directive(".text");
  {
    Scoped S(Log, "cg.phase1", Id);
    for (gg::Function &F : P.Functions)
      gg::runPhase1(P, F);
  }
  for (gg::Function &F : P.Functions) {
    gg::NodeArena LocalArena;
    const std::string FnName = P.Syms.text(F.Name);
    Emit.blank();
    Emit.directive(gg::strf(".globl %s", FnName.c_str()));
    Emit.labelText(FnName);
    Emit.directive(".word 0x0fc0");
    size_t PrologueLine = Emit.lines().size();
    Emit.instRaw("subl2", {"$FRAME", "sp"});
    gg::VaxSemantics Sem(Emit, F, gg::CgOptions{});

    auto Tree = [&](gg::Node *N) -> bool {
      gg::AsmEmitter::Mark M = Emit.mark();
      std::vector<gg::LinToken> Input;
      {
        Scoped S(Log, "ir.linearize", Id);
        Input = gg::linearize(N);
      }
      C.Tokens += Input.size();
      ++C.Trees;
      gg::MatchResult MR;
      {
        Scoped S(Log, "match", Id);
        MR = T.matcher().match(Input);
      }
      if (MR.Ok) {
        C.Steps += MR.Steps.size();
        Scoped S(Log, "vax.replay", Id);
        std::string SemErr;
        if (Sem.replay(T.grammar(), Input, MR.Steps, SemErr))
          return true;
      }
      // A blocked tree: regenerate it through the PCC baseline, as the
      // driver's degradation ladder does.
      ++C.Blocked;
      Scoped S(Log, "pcc.fallback", Id);
      Emit.rollback(M);
      Sem.resetAfterFailure();
      gg::DiagnosticSink Diags;
      if (!gg::pccGenStatement(P, F, N, Emit, Diags, &LocalArena)) {
        Err = "tree failed both paths: " + Diags.renderAll();
        return false;
      }
      Sem.invalidateCC();
      return true;
    };

    bool EndsWithRet = false;
    for (gg::Node *S : F.Body) {
      EndsWithRet = false;
      switch (S->Opcode) {
      case gg::Op::LabelDef: {
        Scoped Sp(Log, "vax.emit", Id);
        Sem.emitLabel(S->Sym);
        break;
      }
      case gg::Op::Jump: {
        Scoped Sp(Log, "vax.emit", Id);
        Sem.emitJump(S->left()->Sym);
        break;
      }
      case gg::Op::Ret:
        if (S->left() &&
            !Tree(LocalArena.bin(gg::Op::Assign, gg::Ty::L,
                                 LocalArena.dreg(gg::RegR0, gg::Ty::L),
                                 S->left())))
          return false;
        {
          Scoped Sp(Log, "vax.emit", Id);
          Sem.emitRet();
        }
        EndsWithRet = true;
        break;
      case gg::Op::CallStmt: {
        const gg::Node *Call = S->right();
        {
          Scoped Sp(Log, "vax.emit", Id);
          Sem.emitCall(Call->left()->Sym, static_cast<int>(Call->Value));
        }
        if (S->left() &&
            !Tree(LocalArena.bin(gg::Op::Assign, S->left()->Type, S->left(),
                                 LocalArena.dreg(gg::RegR0, gg::Ty::L))))
          return false;
        break;
      }
      default:
        if (!Tree(S))
          return false;
        break;
      }
    }
    if (!EndsWithRet) {
      Scoped Sp(Log, "vax.emit", Id);
      Sem.emitRet();
    }
    Emit.patchLine(PrologueLine, gg::strf("\tsubl2\t$%d,sp", F.FrameSize));
    C.Spills += Sem.regStats().Spills;
  }
  Scoped S(Log, "vax.emit", Id);
  Asm = Emit.text();
  return true;
}

/// The spans inside cg.walk, each one layer. cg.walk's own self time is
/// the driver glue between them: cg.unattributed_s.
const char *const WalkLayers[] = {"cg.phase1", "ir.linearize", "match",
                                  "vax.replay", "vax.emit", "pcc.fallback"};

} // namespace

bool pb::closedLoop(const gg::VaxTarget &T, const std::vector<Program> &Progs,
                    double Seconds, LoopStats &L, Result &R) {
  const size_t N = Progs.size();
  if (L.Asm.empty()) {
    L.Asm.assign(N, "");
    L.PccAsm.assign(N, "");
    L.ProgInsts.assign(N, 0);
  }
  uint64_t Start = nowNs();
  do {
    // One pass: the next ChunkPrograms programs, round robin.
    double GG = 0, GGCodeGen = 0, Pcc = 0, PccCodeGen = 0, Bytes = 0;
    size_t Count = std::min(N, ChunkPrograms);
    for (size_t K = 0; K < Count; ++K, ++L.Compiled) {
      size_t I = L.Compiled % N;
      std::string GGAsm, PccAsm, Err;
      LegTime GT, PT;
      size_t Insts = 0;
      // Alternate which leg goes first, so neither always runs warm.
      bool GGFirst = (L.Compiled / N + I) % 2 == 0;
      bool PccOk = true;
      if (!GGFirst)
        PccOk = pccLeg(Progs[I], PccAsm, PT, Err);
      bool GGOk = ggLeg(T, Progs[I], GGAsm, Insts, GT, Err);
      if (GGFirst)
        PccOk = pccLeg(Progs[I], PccAsm, PT, Err);
      R.Attempted += 2;
      if (!GGOk || !PccOk) {
        R.fail(gg::strf("program %zu failed to compile: %s", I, Err.c_str()));
        return false;
      }
      if (L.Compiled < N) {
        L.Asm[I] = std::move(GGAsm);
        L.PccAsm[I] = std::move(PccAsm);
        L.ProgInsts[I] = Insts;
      } else if (GGAsm != L.Asm[I] || PccAsm != L.PccAsm[I] ||
                 Insts != L.ProgInsts[I]) {
        R.fail(gg::strf("program %zu: output differs between passes", I));
        return false;
      }
      Bytes += static_cast<double>(Progs[I].Source.size());
      GG += GT.FrontEnd + GT.CodeGen;
      GGCodeGen += GT.CodeGen;
      Pcc += PT.FrontEnd + PT.CodeGen;
      PccCodeGen += PT.CodeGen;
    }
    // Scale the pass to the reference machine speed measured right after
    // it (the GG/PCC ratio needs no scaling: both legs ran side by side).
    double Speed = speedFactor(calibrate());
    L.PassMs.push_back(GG * 1e3 / Speed);
    L.GGKibPerS.push_back(Bytes / 1024 / GG * Speed);
    L.PccKibPerS.push_back(Bytes / 1024 / Pcc * Speed);
    L.Ratio.push_back(GGCodeGen / PccCodeGen);
    L.ProgsPerS.push_back(static_cast<double>(Count) / GG * Speed);
    L.Speed.push_back(Speed);
  } while (secondsSince(Start) < Seconds || L.Compiled < N);
  return true;
}

void pb::addCodeMetrics(const std::vector<Program> &Progs, const LoopStats &L,
                        Result &R) {
  // Both backends' output must reproduce the interpreter's. Simulation is
  // untimed and independent per program, so it runs on parallel threads and
  // is tallied in program order. Run time of the GG code is reported
  // against PCC's on the same program, as a geometric mean: programs loop
  // for seed-dependent counts, so absolute cycles measure the draw.
  const size_t N = Progs.size();
  std::vector<uint64_t> Cycles(2 * N, 0);
  std::vector<std::string> Why(2 * N);
  std::vector<char> Ok(2 * N, 0);
  forEachParallel(2 * N, [&](size_t K) {
    const std::string &Asm = K % 2 ? L.PccAsm[K / 2] : L.Asm[K / 2];
    Ok[K] = simCheck(Progs[K / 2], Asm, Cycles[K], Why[K]);
  });
  double LogRatio = 0;
  uint64_t GGCycles = 0;
  for (size_t K = 0; K < 2 * N; ++K) {
    ++R.Attempted;
    if (!Ok[K])
      R.fail(gg::strf("program %zu (generator seed %llu), %s: %s", K / 2,
                      static_cast<unsigned long long>(Progs[K / 2].GenSeed),
                      K % 2 ? "pcc" : "gg", Why[K].c_str()));
  }
  for (size_t I = 0; I < N; ++I) {
    GGCycles += Cycles[2 * I];
    LogRatio +=
        std::log(static_cast<double>(std::max<uint64_t>(Cycles[2 * I], 1)) /
                 static_cast<double>(std::max<uint64_t>(Cycles[2 * I + 1], 1)));
  }
  printf("# machine %.3fx slower than the reference (median over %zu "
         "passes); rates and times below are scaled by it\n",
         median(L.Speed), L.Speed.size());
  printf("# %zu programs checked on the simulator: %llu GG instructions, "
         "%llu simulated GG cycles\n",
         Progs.size(),
         static_cast<unsigned long long>(
             std::accumulate(L.ProgInsts.begin(), L.ProgInsts.end(), 0ull)),
         static_cast<unsigned long long>(GGCycles));
  R.add("gg_kib_per_s", median(L.GGKibPerS), "KiB/s");
  R.add("pcc_kib_per_s", median(L.PccKibPerS), "KiB/s");
  R.add("gg_pcc_codegen_ratio", median(L.Ratio), "x");
  uint64_t Insts = 0;
  for (size_t I : L.ProgInsts)
    Insts += I;
  R.add("static_insts_per_kib", static_cast<double>(Insts) / kib(Progs),
        "insts/KiB");
  R.add("sim_cycles_vs_pcc",
        std::exp(LogRatio / static_cast<double>(Progs.size())), "x");
}

void pb::runBatch(const RunOptions &O, const Setup &S, Result &R) {
  uint64_t DrawStart = nowNs(), Screened = 0;
  std::vector<Program> Progs =
      drawLargePrograms(O.Seed, BatchPrograms, &Screened);
  printf("# batch_large: %zu programs, %.1f KiB of source, drawn from %llu "
         "candidates in %.1f s\n",
         Progs.size(), kib(Progs), static_cast<unsigned long long>(Screened),
         secondsSince(DrawStart));
  resetPeakRss();
  if (O.Trace) {
    std::vector<Span> Kept;
    double Overhead = layerReport(*S.Target, Progs, O.Seconds, Kept, R);
    // The server does no work in this workload.
    for (auto [Name, Unit] :
         {std::pair{"serve.queue_ms.p50", "ms"}, {"serve.queue_ms.tail", "ms"},
          {"serve.handler_ms.p50", "ms"}, {"serve.handler_ms.tail", "ms"},
          {"serve.return_ms.p50", "ms"}, {"serve.codec_us", "us"},
          {"serve.overloaded", "count"}, {"serve.backlog_max", "count"},
          {"serve.reload_pause_ms", "ms"}, {"serve.lat_tail_ms.lo", "ms"},
          {"serve.lat_p50_ms.reload", "ms"},
          {"serve.lat_tail_ms.reload", "ms"}, {"serve.lat_p50_ms.hi", "ms"},
          {"serve.lat_tail_ms.hi", "ms"}, {"loadgen.late_ms.tail", "ms"}})
      R.add(Name, 0, Unit);
    R.add("trace.overhead_frac", Overhead, "ratio");
    if (!O.SpansOut.empty() && !writeSpans(O.SpansOut, Kept))
      fprintf(stderr, "perfbench: cannot write %s\n", O.SpansOut.c_str());
    return;
  }
  LoopStats L;
  if (!closedLoop(*S.Target, Progs, O.Seconds, L, R))
    return;
  R.PeakRssMb = peakRssMb();
  addCodeMetrics(Progs, L, R);
  Tail T = tailOf(L.PassMs);
  printf("# latency of a pass over the %zu programs: %zu samples, tail "
         "(p%.2f) %.3f ms\n",
         Progs.size(), L.PassMs.size(), T.Percentile, T.Value);
  R.add("lat_p50_ms", median(L.PassMs), "ms");
  R.add("max_rps", median(L.ProgsPerS), "req/s");
}

double pb::layerReport(const gg::VaxTarget &T,
                       const std::vector<Program> &Progs, double Seconds,
                       std::vector<Span> &Kept, Result &R) {
  struct PassResult {
    std::map<std::string, SelfCost> Costs;
    WalkCounts Counts;
    double WalkUntraced = 0; ///< the same walk without spans
    double TotalUntraced = 0; ///< front end included
    double Compile = 0;
  };
  std::vector<PassResult> Passes;
  SpanLog Log;
  uint64_t Start = nowNs();
  // Pass 0 warms caches and lazy registries and is not reported; then at
  // least two counted passes, so every count can be checked to repeat.
  for (int Pass = 0; Pass < 3 || secondsSince(Start) < Seconds; ++Pass) {
    PassResult Cur;
    Log.clear();
    for (size_t I = 0; I < Progs.size(); ++I) {
      std::string Walked, Err;
      uint64_t WalkStart = 0;
      R.Attempted += 1;
      if (!walkProgram(T, Progs[I], I, &Log, Walked, Cur.Counts, WalkStart,
                       Err)) {
        R.fail(gg::strf("program %zu: traced walk failed: %s", I,
                        Err.c_str()));
        return 0;
      }
      // The untraced walk: the same calls without spans, for the trace's
      // own overhead.
      WalkCounts Ignored;
      std::string Bare;
      uint64_t W0 = nowNs();
      walkProgram(T, Progs[I], I, nullptr, Bare, Ignored, WalkStart, Err);
      Cur.TotalUntraced += secondsSince(W0);
      Cur.WalkUntraced += secondsSince(WalkStart);
      // The real driver on the same program, untraced.
      gg::Program P;
      std::string Asm;
      if (!parse(Progs[I], P, Err)) {
        R.fail(Err);
        return 0;
      }
      uint64_t C0 = nowNs();
      gg::GGCodeGenerator CG(T);
      bool Ok = CG.compile(P, Asm, Err);
      Cur.Compile += secondsSince(C0);
      if (!Ok) {
        R.fail(gg::strf("program %zu: %s", I, Err.c_str()));
        return 0;
      }
      if (Walked != Asm || Bare != Asm) {
        R.fail(gg::strf("program %zu: the layer walk's assembly differs from "
                        "GGCodeGenerator::compile's",
                        I));
        return 0;
      }
      // The PCC leg, as its own root span.
      gg::Program PP;
      if (!parse(Progs[I], PP, Err)) {
        R.fail(Err);
        return 0;
      }
      std::string PccAsm;
      {
        Scoped Sp(&Log, "pcc", I);
        gg::PccCodeGenerator Pcc;
        Ok = Pcc.compile(PP, PccAsm, Err);
      }
      if (!Ok) {
        R.fail(gg::strf("program %zu: pcc: %s", I, Err.c_str()));
        return 0;
      }
    }
    if (Pass == 0)
      continue;
    Cur.Costs = selfCosts(Log.spans());
    if (Kept.empty())
      Kept = Log.spans();
    Passes.push_back(std::move(Cur));
  }

  // Every count must repeat exactly across passes.
  for (const PassResult &P : Passes) {
    if (!(P.Counts == Passes[0].Counts))
      R.broken("walk counts differ between passes");
    for (const auto &[Name, C] : P.Costs)
      if (C.Allocs != Passes[0].Costs.at(Name).Allocs)
        R.broken("allocation count of " + Name + " differs between passes");
  }

  // Report the pass with the median walk time, whole, so its layer self
  // times and cg.unattributed_s add up to its cg.walk_s exactly.
  std::vector<size_t> Order(Passes.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Passes[A].Costs["cg.walk"].TotalSeconds <
           Passes[B].Costs["cg.walk"].TotalSeconds;
  });
  PassResult &M = Passes[Order[Order.size() / 2]];
  auto Self = [&](const char *Name) { return M.Costs[Name].Seconds; };
  auto Allocs = [&](const char *Name) {
    return static_cast<double>(M.Costs[Name].Allocs);
  };
  double WalkS = M.Costs["cg.walk"].TotalSeconds;
  double Unattributed = Self("cg.walk");
  double Sum = Unattributed;
  for (const char *L : WalkLayers)
    Sum += Self(L);
  if (std::abs(Sum - WalkS) > 1e-6 * WalkS)
    R.broken("layer self times do not add up to cg.walk_s");

  const WalkCounts &C = M.Counts;
  printf("# traced walk: %zu counted passes, assembly byte-identical to "
         "GGCodeGenerator::compile for all %zu programs\n",
         Passes.size(), Progs.size());
  R.add("frontend.self_s", Self("frontend"), "s");
  R.add("frontend.allocs", Allocs("frontend"), "count");
  R.add("cg.phase1.self_s", Self("cg.phase1"), "s");
  R.add("cg.phase1.allocs", Allocs("cg.phase1"), "count");
  R.add("ir.linearize.self_s", Self("ir.linearize"), "s");
  R.add("ir.linearize.allocs", Allocs("ir.linearize"), "count");
  R.add("ir.tokens", static_cast<double>(C.Tokens), "count");
  R.add("match.self_s", Self("match"), "s");
  R.add("match.allocs", Allocs("match"), "count");
  R.add("match.steps", static_cast<double>(C.Steps), "count");
  R.add("match.steps_per_token",
        static_cast<double>(C.Steps) / static_cast<double>(C.Tokens),
        "steps/token");
  R.add("vax.replay.self_s", Self("vax.replay"), "s");
  R.add("vax.replay.allocs", Allocs("vax.replay"), "count");
  R.add("vax.emit.self_s", Self("vax.emit"), "s");
  R.add("vax.emit.allocs", Allocs("vax.emit"), "count");
  R.add("vax.spills", static_cast<double>(C.Spills), "count");
  R.add("pcc.self_s", Self("pcc"), "s");
  R.add("pcc.allocs", Allocs("pcc"), "count");
  R.add("pcc.fallback.self_s", Self("pcc.fallback"), "s");
  R.add("cg.trees", static_cast<double>(C.Trees), "count");
  R.add("cg.blocked_frac",
        static_cast<double>(C.Blocked) / static_cast<double>(C.Trees),
        "ratio");
  R.add("cg.walk_s", WalkS, "s");
  R.add("cg.unattributed_s", Unattributed, "s");
  R.add("cg.compile_s", M.Compile, "s");
  // Against the untraced walk: the traced one also carries the spans' cost.
  R.add("cg.walk_untraced_s", M.WalkUntraced, "s");
  R.add("cg.driver_overhead_s", M.Compile - M.WalkUntraced, "s");
  double Traced = WalkS + M.Costs["frontend"].TotalSeconds;
  return Traced / M.TotalUntraced - 1;
}
