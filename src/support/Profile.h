//===- Profile.h - the table-event registry and its views -------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table-event registry: what the table-driven hot paths did and
/// what it cost. The matcher's shift/reduce loop, the semantic actions'
/// instruction-table lookups and every code-generation phase record into
/// it, and it answers through two views:
///   * coverageSnapshot() — the counts-only `gg-coverage-v1` artifact
///     (support/Coverage.h): how often each state, production, dyn-tie
///     point and instruction-table row fires, and which production each
///     tie chose (`--coverage-json=`);
///   * snapshot() — the `gg-profile-v1` cost artifact: timestamp deltas
///     charged to per-state, per-production, per-dyn-point and per-phase
///     buckets (`--profile=`, `--profile-json=`).
/// `gg-report` merges either artifact, ranks by cost, joins the two and
/// diffs against a PCC-leg profile (`--diff-pcc`): the feedback loop the
/// related work builds on (Samuelsson's example-based table optimization;
/// Nederhof & Satta's table-representation wins).
///
/// The views count the same events where they agree and keep separate
/// counts where they do not. Tie events are shared: one (state, terminal)
/// map entry holds the ticks, the event count (coverage "hits", profile
/// "events") and the chosen-production counts. Coverage states count
/// pushes (the initial state 0 included) while profile states charge the
/// acting state of each shift or reduce; coverage productions count
/// attempted reduces (a failed goto or an underflow included) while
/// profile productions count completed ones; coverage compiles count GG
/// compiles only while profile compiles count the PCC baseline's too.
///
/// Two profile modes behind one `--profile=` flag:
///   * instr — instrumented attribution. Each matcher step charges a
///     profTicks() delta (rdtsc on x86-64) since the previous step's
///     record to the acting state: in the cycles timebase that covers
///     the previous step's bookkeeping, the lookahead's terminal lookup
///     and the whole lrStep(). Reduce steps additionally charge the
///     production, and a reduce at a deferred reduce/reduce tie charges
///     the dyn point (state, terminal) with the time up to the tie
///     timestamp (under steps each is one tick). PhaseScopes charge the
///     pipeline phases of support/Phase.h. Per-table-region buckets are
///     derived from the per-state buckets at snapshot time (region =
///     RegionSize consecutive states of the packed action/goto tables),
///     so regions cost nothing on the hot path.
///   * perf — instr plus hardware counters via perf_event_open (cycles,
///     instructions, L1d/LLC misses, branch mispredicts), sampled at
///     phase-scope boundaries per thread and summed per phase. When the
///     syscall is unavailable (containers, CI, non-Linux), the mode
///     degrades to instr and the artifact records perf_available=false.
///
/// Two timebases:
///   * cycles (default) — profTicks(); tick totals convert to seconds
///     via profTicksPerSecond(), the same MonoClock domain Timer/Stats
///     use (support/Clock.h), so gg-stats-v1 and gg-profile-v1 numbers
///     are directly comparable.
///   * steps — a deterministic virtual clock: each thread's timestamp is
///     a thread-local event counter, so every charged delta is a
///     property of the compiled input, not of the hardware or the
///     schedule. With this timebase the artifact is byte-identical at
///     any --threads count (asserted by tests/ProfileTest.cpp and the
///     check.sh profile leg). Phases that span the parallel region
///     (cg.total) are wall-only and skipped under steps, keeping the
///     key set schedule-independent too.
///
/// Design constraints, in order:
///   1. *Off is free.* One relaxed load of the gate word per tree (or
///      per phase scope) gates everything; the default-off registry adds
///      no measurable cost.
///   2. *On is cheap and thread-safe.* Hot buckets are per-thread shards
///      of plain atomic arrays (support/Sharded.h): no locks and no
///      hashing per shift or reduce. Only tie events, orders of magnitude
///      rarer, take the mutex-guarded dyn map.
///   3. *Deterministic artifacts.* Every count, and every bucket key, is
///      a property of the input at any thread count; under the steps
///      timebase the tick values are too.
///
/// Sizing (`sizeTables`) must happen while no thread is recording: targets
/// are constructed serially (VaxTarget::create) before compile workers
/// start. Growth retires the previous counter store instead of freeing
/// it, so a racing recorder never touches freed memory.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_PROFILE_H
#define GG_SUPPORT_PROFILE_H

#include "support/Clock.h"
#include "support/Coverage.h"
#include "support/Phase.h"
#include "support/Sharded.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gg {

struct JsonValue;
struct RequestBudget;

enum class ProfileMode : uint8_t { Off = 0, Instr, Perf };
enum class ProfileTimebase : uint8_t { Cycles = 0, Steps };

/// Parses a `--profile=` spec: off | instr | perf, with an optional
/// `,cycles` / `,steps` timebase suffix. Returns false and sets \p Err
/// on junk.
bool parseProfileSpec(const std::string &Spec, ProfileMode &Mode,
                      ProfileTimebase &Timebase, std::string &Err);

/// Ticks + event count for one bucket (a state, production, dyn point,
/// region or phase).
struct ProfCell {
  uint64_t Ticks = 0;
  uint64_t Events = 0;
};

/// Per-phase hardware-counter deltas (perf mode; all zero otherwise).
struct HwCounters {
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t L1dMisses = 0;
  uint64_t LlcMisses = 0;
  uint64_t BranchMisses = 0;

  bool any() const {
    return Cycles | Instructions | L1dMisses | LlcMisses | BranchMisses;
  }
  void add(const HwCounters &O) {
    Cycles += O.Cycles;
    Instructions += O.Instructions;
    L1dMisses += O.L1dMisses;
    LlcMisses += O.LlcMisses;
    BranchMisses += O.BranchMisses;
  }
};

/// One phase's accumulated profile.
struct PhaseProfile {
  ProfCell Cell;
  HwCounters Hw;
};

/// A plain-data profile artifact: what one `gg-profile-v1` file holds.
/// The registry serializes through this; `gg-report` parses and merges
/// artifacts with it.
struct ProfileSnapshot {
  /// States per derived table region. 64 states of the packed
  /// action/goto tables are roughly a hot cache page; region buckets
  /// tell the open-item-1 packing work which table pages are hot.
  static constexpr uint64_t RegionSize = 64;

  std::string Fingerprint; ///< grammar/tables identity; "" = unset
  ProfileMode Mode = ProfileMode::Off;
  ProfileTimebase Timebase = ProfileTimebase::Cycles;
  double TicksPerSecond = 0; ///< 0 under the steps timebase
  bool PerfAvailable = false;
  uint64_t Compiles = 0;
  uint64_t NumProds = 0, NumStates = 0;
  std::map<std::string, PhaseProfile> Phases;
  std::map<int, ProfCell> States; ///< state -> matcher loop cost
  std::map<int, ProfCell> Prods;  ///< production -> reduce-step cost
  std::map<std::pair<int, int>, ProfCell> Dyn; ///< (state,term) -> tie cost

  /// Region buckets derived from States (deterministic given States).
  std::map<int, ProfCell> regions() const;

  /// Ticks -> seconds in the shared MonoClock domain; 0 when the
  /// timebase is steps (ticks are unitless there).
  double seconds(uint64_t Ticks) const {
    return TicksPerSecond > 0 ? static_cast<double>(Ticks) / TicksPerSecond
                              : 0;
  }

  /// Serializes as one `gg-profile-v1` JSON object with sorted keys.
  /// Regions are emitted (derived) but never parsed back — they are
  /// recomputed, so round-trips stay byte-identical.
  std::string toJson() const;

  /// Parses a `gg-profile-v1` object. Returns false and sets \p Err on
  /// malformed input or a schema mismatch.
  bool parse(const JsonValue &V, std::string &Err);
  bool parse(const std::string &Text, std::string &Err);

  /// Adds \p Other into this artifact. Fails when fingerprints, table
  /// shapes or timebases disagree — such artifacts must not be summed.
  bool merge(const ProfileSnapshot &Other, std::string &Err);
};

/// One LR step as the registry records it: the fields of match/Matcher.h's
/// StepEvent that name table cells. A shift has Prod = -1; a reduce whose
/// goto failed or whose stack underflowed has Pushed = -1.
struct TableStep {
  int State = -1;   ///< the acting state (the stack top before the step)
  int Pushed = -1;  ///< the state pushed, or -1
  int Prod = -1;    ///< the production reduced by, or -1
  int Term = -1;    ///< the lookahead's terminal index
  bool Tie = false; ///< the reduce is a deferred reduce/reduce tie point
};

/// The process-wide table-event registry. All recording funnels through
/// the free function profile() below.
class ProfileRegistry {
public:
  static ProfileRegistry &global();

  /// Bits of the gate word, the one relaxed load a hot path reads.
  enum GateBit : uint8_t {
    Count = 1, ///< count table events (the coverage view)
    Time = 2,  ///< charge tick deltas (the profile view; instr or perf)
    Perf = 4,  ///< also sample hardware counters per phase
    Steps = 8, ///< the profile's timebase is steps, not cycles
    Record = Count | Time,
  };
  /// The gate word, or 0 when neither counting nor timing is on.
  uint8_t gate() const {
    uint8_t G = Word.load(std::memory_order_relaxed);
    return G & Record ? G : 0;
  }

  /// Turns counting on (it is off, and free, by default) or off again.
  /// Serial-only, like configure(): the drivers enable it before
  /// compiling when a `--coverage-json=` destination is given.
  void enableCoverage(bool On = true) {
    if (On)
      Word.fetch_or(Count, std::memory_order_relaxed);
    else
      Word.fetch_and(static_cast<uint8_t>(~Count), std::memory_order_relaxed);
  }
  bool coverageEnabled() const { return gate() & Count; }

  /// Selects the profile mode and timebase, leaving counting as it is.
  /// Serial-only (drivers configure before compiling). Perf mode arms the
  /// per-thread hardware-counter groups lazily; if perf_event_open fails
  /// the mode quietly degrades to instrumented timing and perfAvailable()
  /// reports false.
  void configure(ProfileMode Mode, ProfileTimebase TB = ProfileTimebase::Cycles);

  ProfileMode mode() const {
    uint8_t G = gate();
    return G & Perf ? ProfileMode::Perf
                    : G & Time ? ProfileMode::Instr : ProfileMode::Off;
  }
  ProfileTimebase timebase() const {
    return Word.load(std::memory_order_relaxed) & Steps
               ? ProfileTimebase::Steps
               : ProfileTimebase::Cycles;
  }
  bool instrEnabled() const { return gate() & Time; }
  bool perfEnabled() const { return gate() & Perf; }

  /// Current timestamp in the timebase of gate word \p G. Cycles:
  /// profTicks(). Steps: a thread-local counter incremented per call, so
  /// consecutive reads on one thread differ by exactly 1 — a
  /// deterministic virtual clock.
  static uint64_t now(uint8_t G) {
    if (!(G & Steps))
      return profTicks();
    static thread_local uint64_t StepCounter = 0;
    return ++StepCounter;
  }

  /// Records one matcher step under gate word \p G (read once per tree;
  /// callers skip the call when it is 0). Counting bumps the pushed
  /// state and the attempted production; timing charges the acting state
  /// and a completed reduce's production the delta since \p LastTs and
  /// returns the new timestamp (\p LastTs itself when nothing was timed).
  /// A tie also lands in the dyn map. Out-of-range ids are dropped, never
  /// asserted: a stale artifact is better than a crashed compiler.
  uint64_t noteStep(uint8_t G, const TableStep &S, uint64_t LastTs);
  /// One consultation of instruction-table row \p Row (counting only).
  void noteInstrRow(int Row) {
    if (coverageEnabled())
      RowHits.add(Row, 1);
  }
  /// One phase event: dense atomics (no lookup); \p Hw is the perf-mode
  /// counter delta, or null.
  void chargePhase(PipelinePhase P, uint64_t Ticks, const HwCounters *Hw);
  /// One compile() call; \p Baseline marks the PCC leg, which only the
  /// profile view counts.
  void noteCompile(bool Baseline = false) {
    uint8_t G = gate();
    if ((G & Count) && !Baseline)
      CountedCompiles.fetch_add(1, std::memory_order_relaxed);
    if (G & Time)
      TimedCompiles.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sizes every table-indexed bucket (grow-only): productions, states,
  /// the dyn-point total used for utilization reporting, and the
  /// instruction-table rows by name (row id = index into \p RowNames).
  /// Serial-only; see the file comment.
  void sizeTables(size_t NumProds, size_t NumStates, size_t NumDynPoints,
                  const std::vector<std::string> &RowNames);
  /// Sets the grammar/tables identity both artifacts embed, so `gg-report`
  /// can decide whether its freshly built target's names apply to a file.
  void setFingerprint(const std::string &HexFP);

  /// True when perf mode has successfully opened hardware counters on at
  /// least one thread and no test forced unavailability.
  bool perfAvailable() const;
  /// Test hook: makes every perf_event_open attempt report failure so
  /// the graceful-fallback path is exercisable where perf works.
  void forcePerfUnavailableForTests(bool Force) {
    PerfForcedOff.store(Force, std::memory_order_relaxed);
  }
  bool perfForcedOff() const {
    return PerfForcedOff.load(std::memory_order_relaxed);
  }
  void notePerfOpened() { PerfOpened.store(true, std::memory_order_relaxed); }

  /// Zeroes every count and bucket (gate, sizes, names and fingerprint
  /// stay).
  void reset();

  /// Sums the shards into the profile view / its JSON rendering. The
  /// shared tie events appear only while timing is on.
  ProfileSnapshot snapshot() const;
  std::string toJson() const { return snapshot().toJson(); }
  /// Sums the shards into the coverage view. The shared tie events
  /// appear only while counting is on.
  CoverageSnapshot coverageSnapshot() const;

private:
  ProfileRegistry() = default;

  std::atomic<uint8_t> Word{0}; ///< GateBit set; see gate()
  std::atomic<bool> PerfOpened{false};
  std::atomic<bool> PerfForcedOff{false};
  std::atomic<uint64_t> CountedCompiles{0}, TimedCompiles{0};

  ShardedCounters PushHits, ProdHits, RowHits;              ///< counting
  ShardedCounters StateTicks, StateEvents, ProdTicks, ProdEvents; ///< timing

  struct PhaseAcc {
    std::atomic<uint64_t> Ticks{0}, Events{0};
    std::atomic<uint64_t> Cycles{0}, Instructions{0}, L1dMisses{0},
        LlcMisses{0}, BranchMisses{0};
  };
  PhaseAcc PhaseAccs[NumPipelinePhases];

  /// One tie point's events: ticks while timing, chosen productions while
  /// counting, and the event count either way.
  struct DynCell {
    ProfCell Cost;
    std::map<int, uint64_t> Chosen;
  };

  mutable std::mutex M; ///< sizing, names, fingerprint, dyn map
  std::vector<std::string> RowNames;
  std::string Fingerprint;
  size_t NumDynPoints = 0;
  std::map<std::pair<int, int>, DynCell> Dyn;
};

/// Shorthand for the global registry.
inline ProfileRegistry &profile() { return ProfileRegistry::global(); }

/// The one RAII phase boundary: feeds every sink \p P's phaseInfo() row
/// names. It publishes the status phase on \p Budget, records the flight
/// event with \p Arg, opens the span, charges the profile phase its tick
/// delta (plus hardware-counter deltas in perf mode; WallOnly rows no-op
/// under steps) and adds its wall seconds to (*\p Times)[P].
class PhaseScope {
public:
  explicit PhaseScope(PipelinePhase P, RequestBudget *Budget = nullptr,
                      int64_t Arg = 0, PhaseTimes *Times = nullptr);
  ~PhaseScope();
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  PipelinePhase Phase;
  PhaseTimes *Times;
  TraceSpan Span;
  MonoClock::time_point WallStart;
  uint8_t Gate = 0;
  uint64_t StartTicks = 0;
  bool Live = false;
  bool PerfLive = false;
  HwCounters PerfStart;
};

} // namespace gg

#endif // GG_SUPPORT_PROFILE_H
