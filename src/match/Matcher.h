//===- Matcher.h - instruction pattern matcher ------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction pattern matcher (paper section 3.3): a table-driven
/// shift/reduce parser invoked once for each expression tree. The matcher
/// consumes the prefix-linearized tree and produces the shift/reduce step
/// sequence; the instruction generation phase replays the reductions,
/// running one semantic action per reduction in the provably correct
/// (bottom-up, left-to-right) order.
///
/// The matcher reads integer token codes (ir/Linearize.h). Its constructor
/// maps every code to the grammar's terminal index once, so the per-token
/// path is one array load: no name is built and no hash table is probed.
/// Names are rendered with tokenName only for BlockReport and renderTrace.
///
/// One SLR step is lrStep() below. Matcher::match and the fuzzer's table
/// simulator (fuzz/TableSim.h) are both loops over it that only record
/// what each step did. A reduce/reduce tie the table constructor deferred
/// to match time always takes the table's default production; the step
/// reports the tie so coverage and the profiler can attribute it.
///
//===----------------------------------------------------------------------===//

#ifndef GG_MATCH_MATCHER_H
#define GG_MATCH_MATCHER_H

#include "ir/Linearize.h"
#include "mdl/Grammar.h"
#include "support/Deadline.h"
#include "tablegen/Packing.h"

#include <optional>
#include <string>
#include <vector>

namespace gg {

/// One step of a match: a shift of input token TokenIndex, or a reduction
/// by production ProdId.
struct MatchStep {
  enum StepKind : uint8_t { Shift, Reduce } Kind;
  int TokenIndex = -1; ///< valid for Shift
  int ProdId = -1;     ///< valid for Reduce
};

/// Structured description of a syntactic block (§6.2.2): everything the
/// degradation ladder and a description author need to understand why the
/// matcher wedged, instead of a bare string.
struct BlockReport {
  enum class Cause : uint8_t {
    NoAction,        ///< no action for (state, lookahead): a description gap
    UnknownTerminal, ///< the input token is not a grammar terminal at all
    MissingGoto,     ///< no goto after a reduce (corrupt or stale tables)
    Underflow,       ///< a reduce pops more states than the stack holds
                     ///< (corrupt or stale tables)
    DepthCap,        ///< the configured parse-stack depth cap was exceeded
    Budget           ///< the request's RequestBudget stopped the parse
                     ///< (BudgetWhy says why); never recovered via fallback
  };
  Cause Why = Cause::NoAction;
  /// Valid when Why == Cause::Budget: which budget dimension tripped.
  BudgetStop BudgetWhy = BudgetStop::None;
  int State = -1;           ///< parser state at the block
  size_t TokenPos = 0;      ///< input position of the offending lookahead
  size_t StackDepth = 0;    ///< parse-stack depth at the block
  std::string Lookahead;    ///< offending token, or "$end"
  /// Grammar symbols on the parse stack, bottom to top — the viable prefix
  /// the tables could not extend.
  std::vector<std::string> ViablePrefix;
  /// Terminals for which the blocking state does have an action; the
  /// "nearest shiftable terminals" a description fix would target.
  std::vector<std::string> ShiftableTerms;

  /// One-line human rendering (used as MatchResult::Error).
  std::string render() const;
};

/// Outcome of matching one tree.
struct MatchResult {
  bool Ok = false;
  std::string Error; ///< syntactic-block description when !Ok
  std::optional<BlockReport> Block; ///< structured cause when !Ok
  std::vector<MatchStep> Steps;
};

/// Tunables for one Matcher instance.
struct MatcherOptions {
  /// Parse-stack depth cap: a pathological or fault-injected input yields a
  /// BlockReport (Cause::DepthCap) instead of unbounded growth. Generous by
  /// default — real trees stay well under 100 (match.stack_depth histogram).
  size_t MaxStackDepth = 10000;
};

/// What one SLR step did (see lrStep).
struct StepEvent {
  enum Outcome : uint8_t {
    Shift,       ///< pushed the shift target; the lookahead is consumed
    Reduce,      ///< popped the rule's right-hand side, pushed the goto
    Accept,      ///< the parse is complete
    NoAction,    ///< no action for (State, lookahead): a syntactic block
    MissingGoto, ///< reduced, but no goto for the rule's left-hand side
    Underflow,   ///< the rule's right-hand side is deeper than the stack
    DepthCap     ///< the stack already exceeded the depth cap
  };
  Outcome Kind = NoAction;
  int State = -1;   ///< the acting state: the stack top before the step
  int Prod = -1;    ///< production for Reduce, MissingGoto and Underflow
  int Pushed = -1;  ///< state pushed by Shift or Reduce
  bool Tie = false; ///< the reduce is a deferred reduce/reduce tie point
};

/// Performs one SLR step (§3.3) on the state stack \p Stack under the
/// lookahead \p TermIdx: the depth-cap check, the action lookup, then the
/// shift or the reduce. A reduce probes the tie point before the goto
/// lookup, so a tie is reported even when the goto then fails. The stack
/// is left popped on MissingGoto and unchanged on every other failure.
inline StepEvent lrStep(const Grammar &G, const PackedTables &T,
                        std::vector<int> &Stack, int TermIdx,
                        size_t DepthCap) {
  StepEvent E;
  E.State = Stack.back();
  if (Stack.size() > DepthCap) {
    E.Kind = StepEvent::DepthCap;
    return E;
  }
  const Action A = T.actionAt(E.State, TermIdx);
  switch (A.Kind) {
  case ActionType::Shift:
    E.Kind = StepEvent::Shift;
    E.Pushed = A.Target;
    Stack.push_back(A.Target);
    return E;
  case ActionType::Accept:
    E.Kind = StepEvent::Accept;
    return E;
  case ActionType::Error:
    E.Kind = StepEvent::NoAction;
    return E;
  case ActionType::Reduce:
    break;
  }
  E.Prod = A.Target;
  E.Tie = T.dynChoicesAt(E.State, TermIdx) != nullptr;
  const Production &P = G.prod(E.Prod);
  if (Stack.size() <= P.Rhs.size()) {
    E.Kind = StepEvent::Underflow;
    return E;
  }
  Stack.resize(Stack.size() - P.Rhs.size());
  E.Pushed = T.gotoAt(Stack.back(), G.ntIndex(P.Lhs));
  if (E.Pushed < 0) {
    E.Kind = StepEvent::MissingGoto;
    return E;
  }
  E.Kind = StepEvent::Reduce;
  Stack.push_back(E.Pushed);
  return E;
}

/// A reusable matcher bound to one grammar and its packed tables. After
/// construction a Matcher is immutable: match() touches only const state
/// (plus the atomic stats registry), so one instance serves any number of
/// concurrent code-generation workers.
class Matcher {
public:
  Matcher(const Grammar &G, const PackedTables &T, MatcherOptions Opts = {});

  /// Matches \p Input (a prefix-linearized tree). A parse error here is a
  /// syntactic block: the description failed to cover well-formed input.
  /// On failure, MatchResult::Block carries the structured cause.
  /// Thread-safe: may be called concurrently from multiple workers.
  ///
  /// \p Budget, when non-null, is the owning request's quarantine budget:
  /// the loop polls cancellation/deadline/steps every BudgetPollMask+1
  /// steps, honors the budget's tighter stack-depth cap, and charges the
  /// tree's total steps to Budget->StepsUsed on every exit path. A budget
  /// stop surfaces as Cause::Budget, which the degradation ladder treats
  /// as non-recoverable (no PCC fallback: fail fast, free the worker).
  MatchResult match(const std::vector<LinToken> &Input,
                    RequestBudget *Budget = nullptr) const;

  const Grammar &grammar() const { return G; }
  const MatcherOptions &options() const { return Opts; }

  /// Dense terminal index of token code \p C in this matcher's grammar, or
  /// -1 if the grammar has no such terminal.
  int termIndexOf(TokenCode C) const { return TermOfCode[C]; }

private:
  const Grammar &G;
  const PackedTables &T;
  MatcherOptions Opts;
  /// Token code -> terminal index (-1: not a terminal of G).
  std::vector<int> TermOfCode;
};

/// Renders the Appendix-style action listing for a match: one line per
/// shift/reduce step with the production and its semantic action.
std::string renderTrace(const Grammar &G, const std::vector<LinToken> &Input,
                        const MatchResult &R, const Interner &Syms);

} // namespace gg

#endif // GG_MATCH_MATCHER_H
