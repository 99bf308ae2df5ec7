//===- Phase.h - the one list of pipeline phases ----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every phase of the compile pipeline, named once. phaseInfo() gives
/// each phase one row: its name in every artifact that reports it, or
/// null where that sink does not see it. PhaseScope (support/Profile.h)
/// feeds every sink from the row, so the artifacts agree on the phase
/// boundaries by construction.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_PHASE_H
#define GG_SUPPORT_PHASE_H

#include <cstddef>
#include <cstdint>

namespace gg {

/// The pipeline phases. Dense ids index phaseInfo() and PhaseTimes.
enum class PipelinePhase : uint8_t {
  Queued,     ///< admitted by the server, not yet picked up by a worker
  Transform,  ///< phase 1 tree transformation (serial)
  Linearize,  ///< prefix linearization feeding the matcher
  Match,      ///< phase 2 shift/reduce matching (the table hot loop)
  Replay,     ///< phases 3-4 reduction replay incl. nested operand output
  Fallback,   ///< PCC regeneration of a blocked tree (degradation ladder)
  Stitch,     ///< serial result stitch + peephole + final text render
  Responding, ///< handler returned; the server is writing the response
  Total,      ///< whole GGCodeGenerator::compile
  PccCompile, ///< the PCC baseline's whole compile (the --diff-pcc leg)
  NumPhases
};
constexpr size_t NumPipelinePhases =
    static_cast<size_t>(PipelinePhase::NumPhases);

/// One phase's row.
struct PhaseInfo {
  const char *ProfileKey; ///< gg-profile-v1 "phases" key
  const char *Status;     ///< gg-status-v1 in-flight "phase" value
  const char *Flight;     ///< gg-flight-v1 event "kind"
  const char *Span;       ///< trace span name
  /// Profiled under the cycles timebase only: the phase spans the
  /// parallel region, so a steps-timebase delta would depend on the
  /// schedule (support/Profile.h).
  bool WallOnly;
};

/// The phase table. Constant data, so async-signal-safe to read.
inline const PhaseInfo &phaseInfo(PipelinePhase P) {
  static constexpr PhaseInfo Rows[] = {
      {nullptr, "queued", nullptr, nullptr, false},
      {"cg.transform", "transform", "phase-transform", nullptr, false},
      {"cg.linearize", nullptr, nullptr, nullptr, false},
      {"cg.match", "match", "phase-match", nullptr, false},
      {"cg.replay", "replay", "phase-replay", "cg.replay", false},
      {"cg.fallback", "fallback", "phase-fallback", "cg.fallback", false},
      {"cg.stitch", "stitch", "phase-stitch", nullptr, false},
      {nullptr, "responding", nullptr, nullptr, false},
      {"cg.total", nullptr, nullptr, "cg.compile", /*WallOnly=*/true},
      {"pcc.compile", nullptr, nullptr, nullptr, false},
  };
  static_assert(sizeof(Rows) / sizeof(Rows[0]) == NumPipelinePhases);
  return Rows[static_cast<size_t>(P)];
}

/// Wall seconds per phase, summed by the PhaseScopes handed it.
struct PhaseTimes {
  double Seconds[NumPipelinePhases] = {};
  double &operator[](PipelinePhase P) {
    return Seconds[static_cast<size_t>(P)];
  }
};

} // namespace gg

#endif // GG_SUPPORT_PHASE_H
