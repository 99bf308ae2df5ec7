//===- Matcher.cpp - instruction pattern matcher ---------------------------===//

#include "match/Matcher.h"
#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Strings.h"
#include "support/Trace.h"

#include <algorithm>

using namespace gg;

Matcher::Matcher(const Grammar &G, const PackedTables &T, MatcherOptions Opts)
    : G(G), T(T), Opts(Opts), TermOfCode(NumTokenCodes) {
  assert(G.isFrozen() && "matcher requires a frozen grammar");
  for (TokenCode C = 0; C < NumTokenCodes; ++C)
    TermOfCode[C] = G.termIndexOf(tokenName(C));
}

std::string BlockReport::render() const {
  // Joins up to \p Cap names; real grammars have dozens of shiftable
  // terminals per state and the rendering must stay one line.
  auto Join = [](const std::vector<std::string> &Names, size_t Cap) {
    std::string Out;
    for (size_t I = 0; I < Names.size() && I < Cap; ++I) {
      if (I)
        Out += ' ';
      Out += Names[I];
    }
    if (Names.size() > Cap)
      Out += strf(" ...(%zu more)", Names.size() - Cap);
    return Out;
  };

  std::string Msg;
  switch (Why) {
  case Cause::UnknownTerminal:
    Msg = strf("no terminal symbol '%s' in the machine description (token %zu)",
               Lookahead.c_str(), TokenPos);
    break;
  case Cause::MissingGoto:
    Msg = strf("internal error: missing goto for '%s' in state %d "
               "(token %zu)",
               Lookahead.c_str(), State, TokenPos);
    break;
  case Cause::Underflow:
    Msg = strf("internal error: stack underflow reducing to '%s' in state "
               "%d (token %zu)",
               Lookahead.c_str(), State, TokenPos);
    break;
  case Cause::DepthCap:
    Msg = strf("syntactic block: parse stack depth %zu exceeded the cap in "
               "state %d at token %zu ('%s')",
               StackDepth, State, TokenPos, Lookahead.c_str());
    break;
  case Cause::NoAction:
    Msg = strf("syntactic block in state %d at token %zu ('%s')", State,
               TokenPos, Lookahead.c_str());
    break;
  case Cause::Budget:
    Msg = strf("request budget exhausted (%s) in state %d at token %zu",
               budgetStopName(BudgetWhy), State, TokenPos);
    break;
  }
  if (!ViablePrefix.empty())
    Msg += strf("; viable prefix: %s", Join(ViablePrefix, 12).c_str());
  if (!ShiftableTerms.empty())
    Msg += strf("; shiftable here: %s", Join(ShiftableTerms, 8).c_str());
  return Msg;
}

MatchResult Matcher::match(const std::vector<LinToken> &Input,
                           RequestBudget *Budget) const {
  // Hot-path telemetry: entry references are stable, so look them up once
  // (and the entries themselves are atomics, safe for concurrent workers).
  StatsRegistry &Reg = stats();
  static std::atomic<uint64_t> &NumTrees = Reg.counter("match.trees");
  static std::atomic<uint64_t> &NumShifts = Reg.counter("match.shifts");
  static std::atomic<uint64_t> &NumReduces = Reg.counter("match.reduces");
  static std::atomic<uint64_t> &NumTies = Reg.counter("match.dynamic_ties");
  static std::atomic<uint64_t> &NumBlocks =
      Reg.counter("match.syntactic_blocks");
  static std::atomic<uint64_t> &NumCapHits =
      Reg.counter("match.depth_cap_hits");
  static std::atomic<uint64_t> &NumBudgetStops =
      Reg.counter("match.budget_stops");
  static LogHistogram &DepthHist = Reg.histogram("match.stack_depth");
  static LogHistogram &TokensHist = Reg.histogram("match.tokens_per_tree");
  static LogHistogram &StepsHist = Reg.histogram("match.steps_per_tree");

  // Table-event recording costs one relaxed load of the gate word per tree
  // when off. When on, every step is one record (support/Profile.h), and
  // the tree's start is the push of state 0.
  ProfileRegistry &Prof = profile();
  const uint8_t Gate = Prof.gate();
  uint64_t LastTs = Gate ? Prof.noteStep(Gate, {-1, 0}, 0) : 0;

  TraceSpan Span("match.tree");
  ++NumTrees;

  // Without epsilon rules the stack is at most shifts + 1 deep, so one
  // reserve per stack covers the tree; with them it is only a hint. Trees
  // average about 2.1 steps per token; the step reserve also covers the
  // chain reductions of the shortest trees.
  const size_t N = Input.size();
  MatchResult R;
  std::vector<int> StateStack;
  StateStack.reserve(N + 1);
  StateStack.push_back(0);
  std::vector<SymId> SymStack; ///< parallel symbol stack (viable prefix)
  SymStack.reserve(N + 1);
  R.Steps.reserve(N * 3 + 2);
  size_t MaxDepth = 1;

  size_t Pos = 0;
  const int EofIdx = G.termIndex(G.eofSymbol());

  // The request's effective stack cap: the budget may only tighten the
  // matcher's own configured cap, never widen it.
  size_t DepthCap = Opts.MaxStackDepth;
  if (Budget && Budget->MaxStackDepth && Budget->MaxStackDepth < DepthCap)
    DepthCap = Budget->MaxStackDepth;

  // Per-tree bookkeeping runs on every exit path; the step counters are
  // summed locally and published once per tree.
  uint64_t Shifts = 0, Reduces = 0, Ties = 0;
  auto Finish = [&] {
    NumShifts += Shifts;
    NumReduces += Reduces;
    NumTies += Ties;
    DepthHist.record(MaxDepth);
    TokensHist.record(N);
    StepsHist.record(R.Steps.size());
    NumBlocks += !R.Ok;
    if (Budget)
      Budget->StepsUsed.fetch_add(R.Steps.size(), std::memory_order_relaxed);
    Span.arg("tokens", static_cast<int64_t>(N));
    Span.arg("steps", static_cast<int64_t>(R.Steps.size()));
    Span.arg("max_depth", static_cast<int64_t>(MaxDepth));
  };

  auto LookaheadName = [&] {
    return Pos < N ? tokenName(Input[Pos].Code) : G.symbolName(G.eofSymbol());
  };

  // Fails the match with a structured report; Error is the rendering of
  // Block so string-matching consumers keep working.
  BudgetStop PendingBudgetWhy = BudgetStop::None;
  auto Blocked = [&](BlockReport::Cause Why, std::string Lookahead) {
    BlockReport B;
    B.Why = Why;
    B.BudgetWhy = PendingBudgetWhy;
    B.State = StateStack.back();
    B.TokenPos = Pos;
    B.StackDepth = StateStack.size();
    B.Lookahead = std::move(Lookahead);
    B.ViablePrefix.reserve(SymStack.size());
    for (SymId S : SymStack)
      B.ViablePrefix.push_back(G.symbolName(S));
    for (int TI = 0; TI < T.numTerms(); ++TI)
      if (T.actionAt(B.State, TI).Kind != ActionType::Error)
        B.ShiftableTerms.push_back(G.symbolName(G.terminals()[TI]));
    R.Error = B.render();
    R.Block = std::move(B);
    Finish();
  };

  while (true) {
    // Cooperative quarantine poll (docs/server.md): cancellation, the
    // wall-clock deadline and the step budget, every BudgetPollMask+1
    // steps so a runaway parse aborts promptly without putting a clock
    // read on every iteration.
    if (Budget && (R.Steps.size() & BudgetPollMask) == 0 &&
        Budget->shouldStop(R.Steps.size())) {
      ++NumBudgetStops;
      PendingBudgetWhy = Budget->Stopped.load(std::memory_order_relaxed);
      Blocked(BlockReport::Cause::Budget, LookaheadName());
      return R;
    }

    const int TermIdx = Pos < N ? TermOfCode[Input[Pos].Code] : EofIdx;
    if (TermIdx < 0) {
      Blocked(BlockReport::Cause::UnknownTerminal, LookaheadName());
      return R;
    }

    const StepEvent E = lrStep(G, T, StateStack, TermIdx, DepthCap);
    if (Gate)
      LastTs = Prof.noteStep(Gate, {E.State, E.Pushed, E.Prod, TermIdx, E.Tie},
                             LastTs);
    switch (E.Kind) {
    case StepEvent::Shift:
      ++Shifts;
      R.Steps.push_back({MatchStep::Shift, static_cast<int>(Pos), -1});
      SymStack.push_back(G.terminals()[TermIdx]);
      MaxDepth = std::max(MaxDepth, StateStack.size());
      ++Pos;
      break;

    case StepEvent::Reduce:
    case StepEvent::MissingGoto:
    case StepEvent::Underflow: {
      // A reduce whose goto fails still counts. A tie is a longest-rule
      // tie the table constructor deferred to match time (§3.2); the
      // table's default production is taken.
      ++Reduces;
      Ties += E.Tie;
      // A failed reduce reports the stranded nonterminal as its lookahead:
      // corrupt or stale tables, not a description gap.
      const Production &P = G.prod(E.Prod);
      if (E.Kind == StepEvent::Underflow) {
        Blocked(BlockReport::Cause::Underflow, G.symbolName(P.Lhs));
        return R;
      }
      SymStack.resize(SymStack.size() - P.Rhs.size());
      if (E.Kind == StepEvent::MissingGoto) {
        Blocked(BlockReport::Cause::MissingGoto, G.symbolName(P.Lhs));
        return R;
      }
      R.Steps.push_back({MatchStep::Reduce, -1, E.Prod});
      SymStack.push_back(P.Lhs);
      MaxDepth = std::max(MaxDepth, StateStack.size());
      break;
    }

    case StepEvent::Accept:
      R.Ok = true;
      Finish();
      return R;

    case StepEvent::NoAction:
      // A parse error on well-formed input is a syntactic block (§6.2.2):
      // the machine description cannot continue this viable prefix.
      Blocked(BlockReport::Cause::NoAction, LookaheadName());
      return R;

    case StepEvent::DepthCap:
      // Cap hit: pathological input (or an injected fault) must degrade
      // into a reportable block, not unbounded growth.
      ++NumCapHits;
      Blocked(BlockReport::Cause::DepthCap, LookaheadName());
      return R;
    }
  }
}

std::string gg::renderTrace(const Grammar &G,
                            const std::vector<LinToken> &Input,
                            const MatchResult &R, const Interner &Syms) {
  std::string Out;
  for (const MatchStep &S : R.Steps) {
    if (S.Kind == MatchStep::Shift) {
      const LinToken &Tok = Input[S.TokenIndex];
      Out += strf("shift   %s", tokenName(Tok.Code).c_str());
      if (Tok.N) {
        switch (Tok.N->Opcode) {
        case Op::Const:
          Out += strf(" (%lld)", static_cast<long long>(Tok.N->Value));
          break;
        case Op::Name:
        case Op::Gaddr:
        case Op::Label:
          Out += strf(" (%s)", Syms.text(Tok.N->Sym).c_str());
          break;
        case Op::Dreg:
          Out += strf(" (%s)", regName(Tok.N->Reg));
          break;
        case Op::Cmp:
          Out += strf(" (%s)", condName(Tok.N->CC));
          break;
        default:
          break;
        }
      }
      Out += '\n';
      continue;
    }
    const Production &P = G.prod(S.ProdId);
    Out += strf("reduce  %s <-", G.symbolName(P.Lhs).c_str());
    for (SymId Sym : P.Rhs)
      Out += strf(" %s", G.symbolName(Sym).c_str());
    Out += strf("   [%s%s%s]", actionKindName(P.Kind),
                P.SemTag.empty() ? "" : " ", P.SemTag.c_str());
    Out += '\n';
  }
  Out += R.Ok ? "accept\n" : strf("error: %s\n", R.Error.c_str());
  return Out;
}
