//===- Grammar.cpp - machine description grammars --------------------------===//

#include "mdl/Grammar.h"
#include "support/Strings.h"

#include <cctype>
#include <cstdint>

using namespace gg;

const char *gg::actionKindName(ActionKind K) {
  switch (K) {
  case ActionKind::Glue:
    return "glue";
  case ActionKind::Encap:
    return "encap";
  case ActionKind::Emit:
    return "emit";
  }
  return "?";
}

SymId Grammar::getOrAddSymbol(const std::string &Name) {
  auto It = Index.find(Name);
  if (It != Index.end())
    return It->second;
  assert(!Frozen && "cannot add symbols to a frozen grammar");
  assert(!Name.empty() && "empty symbol name");
  SymId Id = static_cast<SymId>(Names.size());
  Names.push_back(Name);
  // The paper's convention: terminals are capitalized ("$end" counts as a
  // terminal too).
  bool IsTerm = !islower(static_cast<unsigned char>(Name[0]));
  TerminalFlag.push_back(IsTerm);
  Index.emplace(Name, Id);
  return Id;
}

SymId Grammar::lookup(const std::string &Name) const {
  auto It = Index.find(Name);
  return It == Index.end() ? -1 : It->second;
}

int Grammar::addProduction(SymId Lhs, std::vector<SymId> Rhs, ActionKind Kind,
                           std::string SemTag, bool IsBridge,
                           bool FromReplication) {
  assert(!Frozen && "cannot add productions to a frozen grammar");
  Production P;
  P.Id = static_cast<int>(Prods.size());
  P.Lhs = Lhs;
  P.Rhs = std::move(Rhs);
  P.Kind = Kind;
  P.SemTag = std::move(SemTag);
  // Split "base_x_y" here, once, so no semantic action parses its tag.
  std::vector<std::string_view> Parts = splitString(P.SemTag, '_');
  assert(Parts[0].size() <= UINT8_MAX && "semantic tag base too long");
  P.TagBaseLen = static_cast<uint8_t>(Parts[0].size());
  size_t I = 1;
  if (I < Parts.size() && Parts[I].size() == 1)
    P.TagSC1 = Parts[I++][0];
  if (I < Parts.size() && Parts[I].size() == 1)
    P.TagSC2 = Parts[I++][0];
  P.IsBridge = IsBridge;
  P.FromReplication = FromReplication;
  Prods.push_back(std::move(P));
  return Prods.back().Id;
}

int Grammar::addProduction(const std::string &Lhs,
                           const std::vector<std::string> &Rhs,
                           ActionKind Kind, std::string SemTag,
                           bool IsBridge) {
  SymId L = getOrAddSymbol(Lhs);
  std::vector<SymId> R;
  R.reserve(Rhs.size());
  for (const std::string &Name : Rhs)
    R.push_back(getOrAddSymbol(Name));
  return addProduction(L, std::move(R), Kind, std::move(SemTag), IsBridge);
}

const std::vector<int> &Grammar::prodsFor(SymId Lhs) const {
  assert(Frozen && "prodsFor requires a frozen grammar");
  return ByLhs[Lhs];
}

void Grammar::freeze() {
  if (Frozen)
    return;
  Eof = getOrAddSymbol("$end");
  Frozen = true;

  ByLhs.assign(Names.size(), {});
  for (const Production &P : Prods)
    ByLhs[P.Lhs].push_back(P.Id);

  DenseIndex.assign(Names.size(), -1);
  for (SymId S = 0; S < static_cast<SymId>(Names.size()); ++S) {
    if (TerminalFlag[S]) {
      DenseIndex[S] = static_cast<int>(TermIds.size());
      TermIds.push_back(S);
    } else {
      DenseIndex[S] = static_cast<int>(NontermIds.size());
      NontermIds.push_back(S);
    }
  }
}

void Grammar::validate(DiagnosticSink &Diags) const {
  if (Start < 0) {
    Diags.error("grammar has no start symbol");
    return;
  }
  if (TerminalFlag[Start])
    Diags.error(strf("start symbol '%s' is a terminal",
                     Names[Start].c_str()));

  std::vector<bool> HasProds(Names.size(), false);
  for (const Production &P : Prods) {
    if (TerminalFlag[P.Lhs])
      Diags.error(strf("terminal '%s' appears as a left-hand side",
                       Names[P.Lhs].c_str()));
    HasProds[P.Lhs] = true;
    if (P.Rhs.empty())
      Diags.error(strf("production %d for '%s' has an empty right-hand "
                       "side (not allowed in machine grammars)",
                       P.Id, Names[P.Lhs].c_str()));
  }
  for (SymId S = 0; S < static_cast<SymId>(Names.size()); ++S) {
    if (!TerminalFlag[S] && !HasProds[S])
      Diags.error(strf("non-terminal '%s' has no productions",
                       Names[S].c_str()));
  }

  // Reachability from the start symbol (unreachable symbols are only a
  // warning; subsetted descriptions legitimately leave some behind).
  std::vector<bool> Reached(Names.size(), false);
  std::vector<SymId> Work{Start};
  Reached[Start] = true;
  while (!Work.empty()) {
    SymId S = Work.back();
    Work.pop_back();
    for (const Production &P : Prods) {
      if (P.Lhs != S)
        continue;
      for (SymId R : P.Rhs)
        if (!Reached[R]) {
          Reached[R] = true;
          if (!TerminalFlag[R])
            Work.push_back(R);
        }
    }
  }
  for (SymId S = 0; S < static_cast<SymId>(Names.size()); ++S)
    if (!Reached[S] && !TerminalFlag[S])
      Diags.warning(strf("non-terminal '%s' is unreachable from the start "
                         "symbol",
                         Names[S].c_str()));
}

std::string Grammar::dump() const {
  std::string Out;
  for (const Production &P : Prods) {
    Out += strf("%4d: %s <-", P.Id, Names[P.Lhs].c_str());
    for (SymId S : P.Rhs) {
      Out += ' ';
      Out += Names[S];
    }
    Out += strf("  : %s", actionKindName(P.Kind));
    if (!P.SemTag.empty())
      Out += strf(" %s", P.SemTag.c_str());
    if (P.IsBridge)
      Out += " bridge";
    Out += '\n';
  }
  return Out;
}

GrammarStats gg::statsOf(const Grammar &G) {
  GrammarStats S;
  S.Productions = G.numProductions();
  size_t Terms = 0, Nonterms = 0;
  for (SymId Sym = 0; Sym < static_cast<SymId>(G.numSymbols()); ++Sym) {
    // Exclude the synthetic $end from the counts the paper reports.
    if (G.isFrozen() && Sym == G.eofSymbol())
      continue;
    if (G.isTerminal(Sym))
      ++Terms;
    else
      ++Nonterms;
  }
  S.Terminals = Terms;
  S.Nonterminals = Nonterms;
  return S;
}

std::string gg::renderProduction(const Grammar &G, const Production &P) {
  std::string Out = strf("P%d: %s <-", P.Id, G.symbolName(P.Lhs).c_str());
  for (SymId Sym : P.Rhs)
    Out += strf(" %s", G.symbolName(Sym).c_str());
  Out += strf(" [%s%s%s]", actionKindName(P.Kind),
              P.SemTag.empty() ? "" : " ", P.SemTag.c_str());
  return Out;
}
