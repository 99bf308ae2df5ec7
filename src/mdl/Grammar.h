//===- Grammar.h - machine description grammars -----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Representation of a machine description grammar (paper section 3.1):
/// attributed context-free productions whose terminal symbols are the IR
/// node labels and whose non-terminals are register classes, addressing
/// modes and factoring helpers. Each production carries a semantic action
/// descriptor: it either *encapsulates* a phrase (typically an addressing
/// mode), *emits* one logical instruction, or is *glue* (parsing only).
///
/// By the paper's convention, terminal symbols start with an upper-case
/// letter and non-terminals with a lower-case letter.
///
//===----------------------------------------------------------------------===//

#ifndef GG_MDL_GRAMMAR_H
#define GG_MDL_GRAMMAR_H

#include "support/Error.h"

#include <cassert>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gg {

/// Index of a symbol within a Grammar (terminals and non-terminals share
/// the same id space).
using SymId = int;

/// What a production's reduction does (paper section 4: "productions now
/// either encapsulate phrases, emit instructions, or serve as glue").
enum class ActionKind : uint8_t { Glue, Encap, Emit };

const char *actionKindName(ActionKind K);

/// One attributed production.
struct Production {
  int Id = -1;
  SymId Lhs = -1;
  std::vector<SymId> Rhs;
  ActionKind Kind = ActionKind::Glue;
  /// Target-interpreted semantic tag ("add_l", "mode.disp_b", ...). This
  /// replaces the paper's hand-assigned R(n) production numbers, whose
  /// design the authors called out as a flaw.
  std::string SemTag;
  /// SemTag split once by addProduction: "add3_b_l" is the base "add3"
  /// (its first TagBaseLen bytes) and the size letters 'b' and 'l'. A
  /// letter is 0 when the tag has no such single-letter field.
  uint8_t TagBaseLen = 0;
  char TagSC1 = 0, TagSC2 = 0;
  /// True for bridge productions added to resolve syntactic blocks (§6.2.2).
  bool IsBridge = false;
  /// True if this production was created by the type replicator.
  bool FromReplication = false;

  std::string_view tagBase() const { return {SemTag.data(), TagBaseLen}; }
};

/// A machine description grammar with dense symbol and production ids.
class Grammar {
public:
  /// Returns the id of \p Name, interning it if needed. Terminal-ness is
  /// inferred from the paper's case convention.
  SymId getOrAddSymbol(const std::string &Name);

  /// Returns the id of \p Name or -1 if not present.
  SymId lookup(const std::string &Name) const;

  const std::string &symbolName(SymId S) const {
    assert(S >= 0 && static_cast<size_t>(S) < Names.size());
    return Names[S];
  }

  bool isTerminal(SymId S) const { return TerminalFlag[S]; }

  /// Appends a production; returns its id.
  int addProduction(SymId Lhs, std::vector<SymId> Rhs, ActionKind Kind,
                    std::string SemTag = "", bool IsBridge = false,
                    bool FromReplication = false);

  /// Convenience: add by symbol names.
  int addProduction(const std::string &Lhs,
                    const std::vector<std::string> &Rhs, ActionKind Kind,
                    std::string SemTag = "", bool IsBridge = false);

  void setStart(SymId S) { Start = S; }
  SymId start() const { return Start; }

  size_t numSymbols() const { return Names.size(); }
  size_t numProductions() const { return Prods.size(); }
  const Production &prod(int Id) const { return Prods[Id]; }
  const std::vector<Production> &productions() const { return Prods; }

  /// All production ids with the given left-hand side.
  const std::vector<int> &prodsFor(SymId Lhs) const;

  /// Dense index of a terminal among terminals (0..numTerminals-1), or of
  /// a non-terminal among non-terminals. Built lazily by freeze().
  int termIndex(SymId S) const { return DenseIndex[S]; }
  int ntIndex(SymId S) const { return DenseIndex[S]; }
  /// Dense index of the terminal named \p Name, or -1 if the grammar has
  /// no such terminal. Requires a frozen grammar.
  int termIndexOf(const std::string &Name) const {
    SymId S = lookup(Name);
    return S >= 0 && isTerminal(S) ? termIndex(S) : -1;
  }
  const std::vector<SymId> &terminals() const { return TermIds; }
  const std::vector<SymId> &nonterminals() const { return NontermIds; }
  size_t numTerminals() const { return TermIds.size(); }
  size_t numNonterminals() const { return NontermIds.size(); }

  /// The synthetic end-of-input terminal "$end" (created by freeze()).
  SymId eofSymbol() const { return Eof; }

  /// Finalizes the symbol tables (dense indices, $end). Must be called
  /// before table construction; adding symbols afterwards is an error.
  void freeze();
  bool isFrozen() const { return Frozen; }

  /// Basic well-formedness checks: start symbol defined and a non-terminal,
  /// every non-terminal on some LHS (productive check is approximate),
  /// terminals never appear as an LHS. Reports into \p Diags.
  void validate(DiagnosticSink &Diags) const;

  /// Renders the grammar, one production per line (for tests and tools).
  std::string dump() const;

private:
  std::vector<std::string> Names;
  std::vector<bool> TerminalFlag;
  std::unordered_map<std::string, SymId> Index;
  std::vector<Production> Prods;
  mutable std::vector<std::vector<int>> ByLhs; // built on freeze
  std::vector<int> DenseIndex;
  std::vector<SymId> TermIds, NontermIds;
  SymId Start = -1;
  SymId Eof = -1;
  bool Frozen = false;
};

/// Summary counts for experiment E1 (paper section 8 statistics).
struct GrammarStats {
  size_t Productions = 0;
  size_t Terminals = 0;
  size_t Nonterminals = 0;
};

GrammarStats statsOf(const Grammar &G);

/// Renders one production as "P<id>: lhs <- rhs... [kind tag]" — the form
/// the explain emission mode and the shift/reduce trace share.
std::string renderProduction(const Grammar &G, const Production &P);

} // namespace gg

#endif // GG_MDL_GRAMMAR_H
