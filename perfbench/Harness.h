//===- Harness.h - shared plumbing of the repository benchmark --*- C++ -*-===//
//
// The benchmark drives the generator from outside, through its public
// calls only. This header holds what every workload shares: the clock,
// order statistics, the allocation counter, the in-memory span log, the
// seeded program populations, the set-up leg and the result record that
// main.cpp prints.
//
//===----------------------------------------------------------------------===//

#ifndef GG_PERFBENCH_HARNESS_H
#define GG_PERFBENCH_HARNESS_H

#include "cg/CompileService.h"
#include "vax/VaxTarget.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) * 1e-9;
}

/// Allocations (operator new calls) made so far by the calling thread.
/// Counted by the replacement operator new in AllocCount.cpp.
uint64_t threadAllocs();

/// Machine-speed calibration. The machine these runs share with other
/// tenants slows down and speeds up by tens of percent over seconds, for
/// every program alike (neighbours contend for caches and memory). A fixed
/// kernel that is not part of the generator (string-keyed map inserts, the
/// same kind of work as a compiler's) is timed after each closed-loop pass
/// and each set-up; end-to-end times and rates are scaled by speedFactor()
/// of those calibrations, which expresses them at the reference speed
/// CalRefSeconds. Raw figures are printed too. Returns the kernel's
/// seconds.
double calibrate();
/// The kernel's median time on the machine the bounds were set on.
constexpr double CalRefSeconds = 0.0100;
/// How many times slower than the reference the machine ran, from a
/// calibration: rates are multiplied by it, times divided by it.
inline double speedFactor(double CalSeconds) {
  return CalSeconds / CalRefSeconds;
}

/// Median of \p V (0 for an empty sample).
double median(std::vector<double> V);

/// The highest percentile that has at least ten samples beyond it, with
/// its value: the tail a sample of this size supports. Falls back to the
/// maximum when fewer than eleven samples exist.
struct Tail {
  double Percentile = 100;
  double Value = 0;
};
Tail tailOf(std::vector<double> V);

/// One recorded span: a layer boundary crossing, kept in memory and
/// written out when the run ends. Self time is the duration minus the
/// part of it that child spans cover.
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1;  ///< index of the enclosing span, -1 at the root
  uint64_t Id = 0;  ///< program or request id
  uint64_t Allocs = 0; ///< allocations inside the span, children included
};

/// Per-thread span log for the batch walk: spans nest strictly, so the
/// open span is the parent of the next one begun.
class SpanLog {
public:
  int begin(const char *Name, uint64_t Id) {
    Span S;
    S.Name = Name;
    S.Parent = Open;
    S.Id = Id;
    S.Allocs = threadAllocs();
    S.StartNs = nowNs();
    Spans.push_back(S);
    Open = static_cast<int>(Spans.size()) - 1;
    return Open;
  }
  void end(int Index) {
    Span &S = Spans[Index];
    S.EndNs = nowNs();
    S.Allocs = threadAllocs() - S.Allocs;
    Open = S.Parent;
  }
  const std::vector<Span> &spans() const { return Spans; }
  void clear() {
    Spans.clear();
    Open = -1;
  }

private:
  std::vector<Span> Spans;
  int Open = -1;
};

/// RAII span; a null log records nothing (the untraced path).
class Scoped {
public:
  Scoped(SpanLog *Log, const char *Name, uint64_t Id)
      : Log(Log), Index(Log ? Log->begin(Name, Id) : -1) {}
  ~Scoped() {
    if (Log)
      Log->end(Index);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  SpanLog *Log;
  int Index;
};

/// Self time and self allocations per span name.
struct SelfCost {
  double Seconds = 0;
  double TotalSeconds = 0; ///< children included
  uint64_t Allocs = 0;
};
std::map<std::string, SelfCost> selfCosts(const std::vector<Span> &Spans);

/// Writes spans as Chrome trace_event JSON (one complete event each).
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

/// Measured cost of one begin/end span pair on this machine, in seconds.
double spanCostSeconds();

/// A generated source program with its reference behaviour from the IR
/// interpreter (the output checker; never the compiler under test).
struct Program {
  std::string Source;
  uint64_t GenSeed = 0;
  std::string ExpectedOutput;
  int64_t ExpectedReturn = 0;
  uint64_t InterpSteps = 0;
};

/// Largest interpreter step count a drawn program may take. Generated
/// programs loop for seed-dependent counts and most large ones run far
/// past the simulator's instruction limit, so the output check (which
/// simulates every distinct program) draws only programs under this cap
/// and skips the rest. The cap keeps the check short and always passable.
constexpr uint64_t InterpStepCap = 1'000'000;

/// The batch population: \p Count `generateLargeProgram(s, 10)` programs,
/// the paper's section-8 "large C program" stand-in, drawn from seeds
/// derived from \p Seed.
std::vector<Program> drawLargePrograms(uint64_t Seed, int Count,
                                       uint64_t *Screened = nullptr);

/// The serving population: the gg-load program shape (`generateProgram`
/// defaults, 4-6 functions, 6-10 statements each), drawn from \p Seed.
std::vector<Program> drawServePrograms(uint64_t Seed, int Count,
                                       uint64_t *Screened = nullptr);

double kib(const std::vector<Program> &Progs);

/// Runs \p F(0) .. \p F(N-1) on four threads; for untimed checking only.
void forEachParallel(size_t N, const std::function<void(size_t)> &F);

/// Peak resident memory: reset after the untimed draw (which screens
/// candidates on parallel threads), read when the run ends.
void resetPeakRss();
double peakRssMb();

/// Runs \p Asm on the VAX simulator and compares it with \p P's reference.
/// Sets \p Cycles to the simulated cycles. Returns false with \p Why set
/// on a mismatch or simulator failure.
bool simCheck(const Program &P, const std::string &Asm, uint64_t &Cycles,
              std::string &Why);

/// The set-up leg: target + compile service, built before any timed
/// region. Repeated, reporting the median; the last build is kept.
struct Setup {
  std::unique_ptr<gg::VaxTarget> Target;
  std::unique_ptr<gg::CompileService> Service;
  double SetupSeconds = 0;  ///< median of VaxTarget::create + CompileService::create, scaled
  double RawSetupSeconds = 0; ///< the same, unscaled
  double BuildSeconds = 0;  ///< median of VaxTarget::create alone
  double VerifySeconds = 0; ///< median serializer round trip of the tables
  uint64_t Allocs = 0;      ///< allocations of one target build + verify
};
bool runSetup(Setup &S, std::string &Err);

/// Everything a run reports: metrics in order, plus the tallies behind
/// the result line's `attempted` and `failed`.
struct Result {
  struct Metric {
    std::string Name;
    double Value = 0;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  double PeakRssMb = 0; ///< read when the timed region ends
  std::vector<std::string> Problems; ///< why the run is not correct

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void fail(const std::string &Why) {
    ++Failed;
    if (Problems.size() < 20)
      Problems.push_back(Why);
  }
  /// A self-check of the benchmark itself failed (not an operation).
  void broken(const std::string &Why) { Problems.push_back(Why); }
};

/// What one run was asked for on the command line.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansOut; ///< where the traced run writes its spans
};

/// Set-ups per run; setup_s is their median.
constexpr int SetupReps = 7;

/// Programs in the batch population.
constexpr int BatchPrograms = 8;

/// Programs per closed-loop pass: one pass is the unit each rate sample
/// covers, short enough that a run holds many of them.
constexpr size_t ChunkPrograms = 8;

/// What the closed loop measured: per-pass rates and GG times, and each
/// distinct program's GG and PCC output from its first compile.
/// Passes walk the programs round robin; successive closedLoop calls on
/// the same LoopStats continue where the last one stopped.
struct LoopStats {
  std::vector<double> GGKibPerS, PccKibPerS, Ratio, ProgsPerS;
  std::vector<double> PassMs; ///< front end + GG over the pass, scaled
  std::vector<std::string> Asm, PccAsm;
  std::vector<size_t> ProgInsts; ///< GG instructions per program
  std::vector<double> Speed;     ///< speedFactor() beside each pass
  size_t Compiled = 0;           ///< programs compiled so far, both legs
};

/// Compiles programs through the GG and the PCC leg, interleaved, in
/// passes until \p Seconds have elapsed and every program has been
/// compiled at least once. Every recompile must repeat the first output
/// exactly. Returns false after recording a failure in \p R.
bool closedLoop(const gg::VaxTarget &T, const std::vector<Program> &Progs,
                double Seconds, LoopStats &L, Result &R);

/// Checks every distinct program on the simulator and adds the closed
/// loop's compile-speed and code metrics to \p R.
void addCodeMetrics(const std::vector<Program> &Progs, const LoopStats &L,
                    Result &R);

/// The traced run's layer walk over \p Progs: adds every compile-layer
/// metric to \p R and returns the trace's measured overhead on the walk.
double layerReport(const gg::VaxTarget &T, const std::vector<Program> &Progs,
                   double Seconds, std::vector<Span> &Kept, Result &R);

void runBatch(const RunOptions &O, const Setup &S, Result &R);
void runServe(const RunOptions &O, const Setup &S, Result &R);

} // namespace pb

#endif // GG_PERFBENCH_HARNESS_H
