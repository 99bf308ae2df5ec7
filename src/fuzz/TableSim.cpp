//===- TableSim.cpp - side-effect-free parse-table walker -----------------===//

#include "fuzz/TableSim.h"
#include "support/Strings.h"

using namespace gg;

namespace {
/// A unit-production cycle in a corrupt table could reduce forever without
/// consuming input; the real Matcher is protected by its step budget, the
/// simulator by this cap (far above any legitimate reduction cascade).
constexpr size_t MaxReducesPerLookahead = 4096;

/// The simulator predicts the matcher's default configuration.
const size_t DepthCap = MatcherOptions{}.MaxStackDepth;

/// Appends what one step did to \p Trace. \p Top is the stack top after
/// the step.
void record(const Grammar &G, const StepEvent &E, int TermIdx, int Top,
            SimTrace &Trace) {
  switch (E.Kind) {
  case StepEvent::Shift:
    Trace.States.push_back(E.Pushed);
    break;
  case StepEvent::Accept:
    break;
  case StepEvent::NoAction:
    Trace.Error =
        strf("no action in state %d on '%s'", E.State,
             G.symbolName(G.terminals()[TermIdx]).c_str());
    break;
  case StepEvent::DepthCap:
    Trace.Error = strf("depth cap %zu exceeded in state %d", DepthCap, E.State);
    break;
  case StepEvent::Reduce:
  case StepEvent::MissingGoto:
  case StepEvent::Underflow:
    // Like the Matcher's coverage, a reduce and its tie point count as
    // soon as the step attempts them, even if the goto then fails.
    if (E.Tie)
      Trace.DynConsults.emplace_back(E.State, TermIdx);
    Trace.Reduces.push_back(E.Prod);
    if (E.Kind == StepEvent::Reduce)
      Trace.States.push_back(E.Pushed);
    else if (E.Kind == StepEvent::MissingGoto)
      Trace.Error = strf("missing goto for '%s' in state %d",
                         G.symbolName(G.prod(E.Prod).Lhs).c_str(), Top);
    else
      Trace.Error = strf("stack underflow reducing p%d", E.Prod);
    break;
  }
}
} // namespace

TableSim::TableSim(const Grammar &G, const PackedTables &T)
    : G(G), T(T), EofIdx(G.termIndex(G.eofSymbol())) {}

StepEvent TableSim::feed(Config &Cfg, int TermIdx, SimTrace *Trace) const {
  for (size_t Reduces = 0; Reduces < MaxReducesPerLookahead; ++Reduces) {
    const StepEvent E = lrStep(G, T, Cfg.Stack, TermIdx, DepthCap);
    if (Trace)
      record(G, E, TermIdx, Cfg.top(), *Trace);
    if (E.Kind != StepEvent::Reduce)
      return E;
  }
  if (Trace)
    Trace->Error = "reduction cascade exceeded the simulator cap";
  return StepEvent{};
}

bool TableSim::advance(Config &Cfg, int TermIdx, SimTrace *Trace) const {
  if (TermIdx < 0 || TermIdx >= T.numTerms()) {
    if (Trace)
      Trace->Error = strf("unknown terminal index %d", TermIdx);
    return false;
  }
  // An overgrown stack is caught at the next step's cap check, the same
  // place the Matcher catches it.
  const StepEvent E = feed(Cfg, TermIdx, Trace);
  if (E.Kind == StepEvent::Accept && Trace)
    Trace->Error = "accept action on a non-EOF terminal";
  return E.Kind == StepEvent::Shift;
}

bool TableSim::finish(Config &Cfg, SimTrace *Trace) const {
  const StepEvent E = feed(Cfg, EofIdx, Trace);
  if (Trace && E.Kind == StepEvent::Accept)
    Trace->Accepted = true;
  if (Trace && E.Kind == StepEvent::Shift)
    Trace->Error = "shift action on end-of-input";
  return E.Kind == StepEvent::Accept;
}

SimTrace TableSim::run(const std::vector<int> &TermIdxs) const {
  SimTrace Trace;
  Trace.States.push_back(0); // the Matcher notes the entry visit of state 0
  Config Cfg;
  for (int TI : TermIdxs)
    if (!advance(Cfg, TI, &Trace))
      return Trace;
  finish(Cfg, &Trace);
  return Trace;
}

SimTrace TableSim::runNames(const std::vector<std::string> &Tokens) const {
  std::vector<int> Idxs;
  Idxs.reserve(Tokens.size());
  for (const std::string &Tok : Tokens) {
    Idxs.push_back(G.termIndexOf(Tok));
    if (Idxs.back() < 0) {
      SimTrace Trace;
      Trace.Error = strf("unknown terminal '%s'", Tok.c_str());
      return Trace;
    }
  }
  return run(Idxs);
}
