//===- TableSim.h - exact parse-table simulator -----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A side-effect-free walk over the packed SLR tables. The grammar-aware
/// fuzzer uses it to *predict* what the real pipeline will do — which
/// productions reduce, which states are visited, which dynamic-tie points
/// are consulted, and whether the parse accepts or blocks — without
/// touching the process-wide table-event registry (support/Profile.h).
/// Searching for witnesses means simulating millions of prefixes, none of
/// which may pollute the coverage artifact the final corpus produces.
///
/// The simulator is a loop over the matcher's own step, lrStep()
/// (match/Matcher.h), with the matcher's default depth cap; it only
/// records what each step did. Whether its predictions hold is checked
/// end to end by the Fuzzer's verdicts, which compare them with the
/// coverage the real Matcher records for every witness.
///
//===----------------------------------------------------------------------===//

#ifndef GG_FUZZ_TABLESIM_H
#define GG_FUZZ_TABLESIM_H

#include "match/Matcher.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gg {

/// Everything one simulated parse observed, in event order. Mirrors what
/// the table-event registry's coverage view would record for the same
/// token sequence.
struct SimTrace {
  bool Accepted = false;
  std::string Error;         ///< human-readable block cause when !Accepted
  std::vector<int> Reduces;  ///< production ids, in reduction order
  std::vector<int> States;   ///< states visited (entry 0, shifts, gotos)
  std::vector<std::pair<int, int>> DynConsults; ///< (state, termIdx)
};

/// Side-effect-free SLR table walker. Immutable after construction; safe
/// to share across threads.
class TableSim {
public:
  TableSim(const Grammar &G, const PackedTables &T);

  /// A parser configuration: the LR state stack. Starts as {0}.
  struct Config {
    std::vector<int> Stack{0};
    int top() const { return Stack.back(); }
  };

  const std::string &termName(int TermIdx) const {
    return G.symbolName(G.terminals()[TermIdx]);
  }
  int eofIndex() const { return EofIdx; }
  int numTerms() const { return T.numTerms(); }

  /// Feeds one terminal: performs every reduction the lookahead triggers,
  /// then the shift. Returns false on any block (no action, missing goto,
  /// depth cap); \p Cfg is then unusable. Events append to \p Trace when
  /// non-null.
  bool advance(Config &Cfg, int TermIdx, SimTrace *Trace) const;

  /// Feeds end-of-input: reduces until Accept. Returns false on a block.
  bool finish(Config &Cfg, SimTrace *Trace) const;

  /// Whole-sentence simulation from the initial configuration, by dense
  /// terminal index. Records the entry visit of state 0 like the Matcher.
  SimTrace run(const std::vector<int> &TermIdxs) const;

  /// Whole-sentence simulation by terminal name (convenience; an unknown
  /// name blocks with UnknownTerminal semantics).
  SimTrace runNames(const std::vector<std::string> &Tokens) const;

  const Grammar &grammar() const { return G; }

private:
  /// Feeds \p TermIdx: steps until a step other than a completed reduce,
  /// recording every step in \p Trace when non-null; returns that step.
  StepEvent feed(Config &Cfg, int TermIdx, SimTrace *Trace) const;

  const Grammar &G;
  const PackedTables &T;
  int EofIdx;
};

} // namespace gg

#endif // GG_FUZZ_TABLESIM_H
