//===- TableBuilder.cpp - SLR(1) table construction ------------------------===//

#include "tablegen/TableBuilder.h"
#include "support/Stats.h"
#include "support/Strings.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

using namespace gg;

namespace {

/// An LR(0) item packed as (production id << 8) | dot position.
/// The augmented production S' -> start gets id == numProductions.
using Item = uint32_t;

inline Item makeItem(int Prod, int Dot) {
  return (static_cast<uint32_t>(Prod) << 8) | static_cast<uint32_t>(Dot);
}
inline int itemProd(Item I) { return static_cast<int>(I >> 8); }
inline int itemDot(Item I) { return static_cast<int>(I & 0xff); }

struct KernelHash {
  size_t operator()(const std::vector<Item> &Kernel) const {
    size_t H = 0xcbf29ce484222325ull;
    for (Item I : Kernel) {
      H ^= I;
      H *= 0x100000001b3ull;
    }
    return H;
  }
};

class BuilderImpl {
public:
  BuilderImpl(const Grammar &G, const BuildOptions &Opts) : G(G), Opts(Opts) {
    AugProd = static_cast<int>(G.numProductions());
    NumTerms = static_cast<int>(G.numTerminals());
    NumNonterms = static_cast<int>(G.numNonterminals());
    Words = (static_cast<size_t>(NumTerms) + 63) / 64;
  }

  BuildResult build() {
    BuildResult R;
    Timer T;
    T.start();

    if (G.start() < 0) {
      R.Error = "grammar has no start symbol";
      return R;
    }
    assert(G.isFrozen() && "grammar must be frozen before table build");

    findChainLoops(R);
    if (!R.ChainLoops.empty()) {
      R.Error = strf("grammar contains %zu chain-production loop(s); the "
                     "pattern matcher would reduce cyclically",
                     R.ChainLoops.size());
      return R;
    }

    if (Opts.Optimized) {
      computeFirstFollowFast();
    } else {
      computeFirstFollowNaive();
    }
    buildStates();
    fillTables(R);
    detectBlocks(R);

    // Accessing symbol per state (for naming states in coverage reports):
    // the symbol of the transition that created it. findOrAddState never
    // returns an existing state for a new symbol path to state 0, and
    // every other state has exactly one accessing symbol in an LR
    // automaton, so first-write-wins is exact, not approximate.
    R.StateAccessSym.assign(States.size(), -1);
    for (size_t S = 0; S < Transitions.size(); ++S)
      for (const auto &[Sym, Dst] : Transitions[S])
        if (R.StateAccessSym[Dst] == -1)
          R.StateAccessSym[Dst] = Sym;

    R.NumItemSets = States.size();
    for (const std::vector<Item> &C : Closures)
      R.TotalItems += C.size();
    T.stop();
    R.Seconds = T.seconds();
    R.Ok = true;
    recordStats(R);
    return R;
  }

private:
  const Grammar &G;
  const BuildOptions &Opts;
  int AugProd = 0;
  int NumTerms = 0, NumNonterms = 0;
  size_t Words = 0;

  // States: kernels, closures and transitions.
  std::vector<std::vector<Item>> States;   // kernels (sorted)
  std::vector<std::vector<Item>> Closures; // full closures (sorted)
  std::vector<std::map<SymId, int>> Transitions;
  std::unordered_map<std::vector<Item>, int, KernelHash> StateIndex;
  std::vector<std::vector<Item>> NaiveClosures; ///< naive mode only

  // FOLLOW sets as terminal-index bitsets, one per non-terminal.
  std::vector<uint64_t> FollowBits;

  int rhsLen(int Prod) const {
    return Prod == AugProd ? 1 : static_cast<int>(G.prod(Prod).Rhs.size());
  }
  SymId rhsAt(int Prod, int I) const {
    return Prod == AugProd ? G.start() : G.prod(Prod).Rhs[I];
  }
  SymId lhsOf(int Prod) const {
    return Prod == AugProd ? -1 : G.prod(Prod).Lhs;
  }

  bool followHas(SymId Nt, int TermIdx) const {
    size_t Base = static_cast<size_t>(G.ntIndex(Nt)) * Words;
    return FollowBits[Base + TermIdx / 64] >> (TermIdx % 64) & 1;
  }

  //===--------------------------------------------------------------------===
  // FIRST / FOLLOW
  //
  // Machine grammars have no empty right-hand sides (validated), which
  // simplifies both computations: FIRST never contains epsilon and FOLLOW
  // propagation only happens from the last RHS symbol.
  //===--------------------------------------------------------------------===

  void computeFirstFollowFast() {
    std::vector<uint64_t> FirstBits(
        static_cast<size_t>(NumNonterms) * Words, 0);
    auto FirstWord = [&](SymId Nt) {
      return FirstBits.data() + static_cast<size_t>(G.ntIndex(Nt)) * Words;
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const Production &P : G.productions()) {
        uint64_t *Dst = FirstWord(P.Lhs);
        SymId S0 = P.Rhs[0];
        if (G.isTerminal(S0)) {
          int TI = G.termIndex(S0);
          uint64_t Old = Dst[TI / 64];
          Dst[TI / 64] |= 1ull << (TI % 64);
          Changed |= Dst[TI / 64] != Old;
        } else {
          const uint64_t *Src = FirstWord(S0);
          for (size_t W = 0; W < Words; ++W) {
            uint64_t Old = Dst[W];
            Dst[W] |= Src[W];
            Changed |= Dst[W] != Old;
          }
        }
      }
    }

    FollowBits.assign(static_cast<size_t>(NumNonterms) * Words, 0);
    auto FollowWord = [&](SymId Nt) {
      return FollowBits.data() + static_cast<size_t>(G.ntIndex(Nt)) * Words;
    };
    {
      int EofIdx = G.termIndex(G.eofSymbol());
      FollowWord(G.start())[EofIdx / 64] |= 1ull << (EofIdx % 64);
    }
    Changed = true;
    while (Changed) {
      Changed = false;
      for (const Production &P : G.productions()) {
        for (size_t I = 0, E = P.Rhs.size(); I != E; ++I) {
          SymId B = P.Rhs[I];
          if (G.isTerminal(B))
            continue;
          uint64_t *Dst = FollowWord(B);
          if (I + 1 < E) {
            SymId Next = P.Rhs[I + 1];
            if (G.isTerminal(Next)) {
              int TI = G.termIndex(Next);
              uint64_t Old = Dst[TI / 64];
              Dst[TI / 64] |= 1ull << (TI % 64);
              Changed |= Dst[TI / 64] != Old;
            } else {
              const uint64_t *Src = FirstWord(Next);
              for (size_t W = 0; W < Words; ++W) {
                uint64_t Old = Dst[W];
                Dst[W] |= Src[W];
                Changed |= Dst[W] != Old;
              }
            }
          } else {
            const uint64_t *Src = FollowWord(P.Lhs);
            for (size_t W = 0; W < Words; ++W) {
              uint64_t Old = Dst[W];
              Dst[W] |= Src[W];
              Changed |= Dst[W] != Old;
            }
          }
        }
      }
    }
  }

  /// The CGGWS-style computation: ordered std::set per symbol, full
  /// re-scans until fixpoint. Produces the same sets as the fast path.
  void computeFirstFollowNaive() {
    std::vector<std::set<int>> First(NumNonterms), Follow(NumNonterms);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const Production &P : G.productions()) {
        std::set<int> &Dst = First[G.ntIndex(P.Lhs)];
        size_t Before = Dst.size();
        SymId S0 = P.Rhs[0];
        if (G.isTerminal(S0))
          Dst.insert(G.termIndex(S0));
        else {
          const std::set<int> &Src = First[G.ntIndex(S0)];
          Dst.insert(Src.begin(), Src.end());
        }
        Changed |= Dst.size() != Before;
      }
    }
    Follow[G.ntIndex(G.start())].insert(G.termIndex(G.eofSymbol()));
    Changed = true;
    while (Changed) {
      Changed = false;
      for (const Production &P : G.productions()) {
        for (size_t I = 0, E = P.Rhs.size(); I != E; ++I) {
          SymId B = P.Rhs[I];
          if (G.isTerminal(B))
            continue;
          std::set<int> &Dst = Follow[G.ntIndex(B)];
          size_t Before = Dst.size();
          if (I + 1 < E) {
            SymId Next = P.Rhs[I + 1];
            if (G.isTerminal(Next))
              Dst.insert(G.termIndex(Next));
            else {
              const std::set<int> &Src = First[G.ntIndex(Next)];
              Dst.insert(Src.begin(), Src.end());
            }
          } else {
            const std::set<int> &Src = Follow[G.ntIndex(P.Lhs)];
            Dst.insert(Src.begin(), Src.end());
          }
          Changed |= Dst.size() != Before;
        }
      }
    }
    FollowBits.assign(static_cast<size_t>(NumNonterms) * Words, 0);
    for (int N = 0; N < NumNonterms; ++N)
      for (int TI : Follow[N])
        FollowBits[static_cast<size_t>(N) * Words + TI / 64] |=
            1ull << (TI % 64);
  }

  //===--------------------------------------------------------------------===
  // LR(0) collection
  //===--------------------------------------------------------------------===

  std::vector<Item> closureFast(const std::vector<Item> &Kernel) {
    std::vector<Item> Result(Kernel);
    std::vector<bool> Added(G.numSymbols(), false);
    std::vector<SymId> Work;
    auto Consider = [&](Item I) {
      int P = itemProd(I), D = itemDot(I);
      if (D >= rhsLen(P))
        return;
      SymId S = rhsAt(P, D);
      if (!G.isTerminal(S) && !Added[S]) {
        Added[S] = true;
        Work.push_back(S);
      }
    };
    for (Item I : Kernel)
      Consider(I);
    while (!Work.empty()) {
      SymId Nt = Work.back();
      Work.pop_back();
      for (int P : G.prodsFor(Nt)) {
        Item I = makeItem(P, 0);
        Result.push_back(I);
        Consider(I);
      }
    }
    std::sort(Result.begin(), Result.end());
    Result.erase(std::unique(Result.begin(), Result.end()), Result.end());
    return Result;
  }

  /// Naive closure: repeated passes with linear membership tests.
  std::vector<Item> closureNaive(const std::vector<Item> &Kernel) {
    std::vector<Item> Result(Kernel);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t I = 0; I < Result.size(); ++I) {
        int P = itemProd(Result[I]), D = itemDot(Result[I]);
        if (D >= rhsLen(P))
          continue;
        SymId S = rhsAt(P, D);
        if (G.isTerminal(S))
          continue;
        for (const Production &Q : G.productions()) {
          if (Q.Lhs != S)
            continue;
          Item New = makeItem(Q.Id, 0);
          if (std::find(Result.begin(), Result.end(), New) == Result.end()) {
            Result.push_back(New);
            Changed = true;
          }
        }
      }
    }
    std::sort(Result.begin(), Result.end());
    return Result;
  }

  int findOrAddState(std::vector<Item> Kernel) {
    std::sort(Kernel.begin(), Kernel.end());
    if (Opts.Optimized) {
      auto It = StateIndex.find(Kernel);
      if (It != StateIndex.end())
        return It->second;
      int Id = static_cast<int>(States.size());
      StateIndex.emplace(Kernel, Id);
      States.push_back(std::move(Kernel));
      return Id;
    }
    // Naive (the CGGWS-era approach): recompute the candidate's full
    // closure and linearly compare it against every existing state's
    // closure — "memory-intensive hours" for a big description.
    std::vector<Item> Closure = closureNaive(Kernel);
    for (size_t I = 0, E = States.size(); I != E; ++I)
      if (NaiveClosures[I] == Closure)
        return static_cast<int>(I);
    States.push_back(std::move(Kernel));
    NaiveClosures.push_back(std::move(Closure));
    return static_cast<int>(States.size()) - 1;
  }

  void buildStates() {
    findOrAddState({makeItem(AugProd, 0)});
    for (size_t S = 0; S < States.size(); ++S) {
      std::vector<Item> Closure = Opts.Optimized ? closureFast(States[S])
                                                 : closureNaive(States[S]);
      // Group post-dot symbols; std::map keeps symbol order deterministic
      // so both algorithms number states identically.
      std::map<SymId, std::vector<Item>> Next;
      for (Item I : Closure) {
        int P = itemProd(I), D = itemDot(I);
        if (D < rhsLen(P))
          Next[rhsAt(P, D)].push_back(makeItem(P, D + 1));
      }
      Closures.push_back(std::move(Closure));
      Transitions.emplace_back();
      for (auto &[Sym, Kernel] : Next)
        Transitions[S][Sym] = findOrAddState(std::move(Kernel));
    }
  }

  //===--------------------------------------------------------------------===
  // Action/goto fill with the paper's conflict resolution
  //===--------------------------------------------------------------------===

  void fillTables(BuildResult &R) {
    LRTables &T = R.Tables;
    T.NumStates = static_cast<int>(States.size());
    T.NumTerms = NumTerms;
    T.NumNonterms = NumNonterms;
    T.Actions.assign(static_cast<size_t>(T.NumStates) * NumTerms, Action());
    T.Gotos.assign(static_cast<size_t>(T.NumStates) * NumNonterms, -1);

    std::vector<std::vector<int>> Reduces(NumTerms);
    for (int S = 0; S < T.NumStates; ++S) {
      for (auto &V : Reduces)
        V.clear();
      bool Accepts = false;

      for (Item I : Closures[S]) {
        int P = itemProd(I), D = itemDot(I);
        if (D != rhsLen(P))
          continue;
        if (P == AugProd) {
          Accepts = true;
          continue;
        }
        SymId Lhs = lhsOf(P);
        for (int TI = 0; TI < NumTerms; ++TI)
          if (followHas(Lhs, TI))
            Reduces[TI].push_back(P);
      }

      for (auto &[Sym, Dst] : Transitions[S]) {
        if (G.isTerminal(Sym))
          T.actionAt(S, G.termIndex(Sym)) = {ActionType::Shift, Dst};
        else
          T.Gotos[static_cast<size_t>(S) * NumNonterms + G.ntIndex(Sym)] =
              Dst;
      }

      for (int TI = 0; TI < NumTerms; ++TI) {
        std::vector<int> &Cands = Reduces[TI];
        if (Cands.empty())
          continue;
        Action &A = T.actionAt(S, TI);
        if (A.Kind == ActionType::Shift) {
          // Shift/reduce: maximal munch prefers the shift (§3.2).
          for (int P : Cands)
            R.SRConflicts.push_back(
                {S, G.terminals()[TI], P, Opts.PreferShift});
          if (Opts.PreferShift)
            continue;
          // Ablation mode: fall through and reduce instead.
        }
        // Reduce/reduce: prefer the longest rule; ties are resolved
        // dynamically by semantic attributes.
        std::sort(Cands.begin(), Cands.end(), [&](int A2, int B2) {
          if (rhsLen(A2) != rhsLen(B2))
            return rhsLen(A2) > rhsLen(B2);
          return A2 < B2;
        });
        int Chosen = Cands[0];
        std::vector<int> Ties;
        for (size_t I = 1; I < Cands.size(); ++I)
          if (rhsLen(Cands[I]) == rhsLen(Chosen))
            Ties.push_back(Cands[I]);
        if (Cands.size() > 1) {
          ReduceReduceConflict C;
          C.State = S;
          C.Term = G.terminals()[TI];
          C.Prods = Cands;
          C.Chosen = Chosen;
          C.Dynamic = !Ties.empty();
          R.RRConflicts.push_back(std::move(C));
        }
        A = {ActionType::Reduce, Chosen};
        if (!Ties.empty())
          T.DynChoices[LRTables::dynKey(S, TI)] = std::move(Ties);
      }

      if (Accepts) {
        int EofIdx = G.termIndex(G.eofSymbol());
        T.actionAt(S, EofIdx) = {ActionType::Accept, 0};
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Diagnostics: chain loops and syntactic blocks
  //===--------------------------------------------------------------------===

  void findChainLoops(BuildResult &R) {
    // Edges A -> B for chain productions A <- B.
    std::vector<std::vector<SymId>> Edges(G.numSymbols());
    for (const Production &P : G.productions())
      if (P.Rhs.size() == 1 && !G.isTerminal(P.Rhs[0]))
        Edges[P.Lhs].push_back(P.Rhs[0]);

    enum Color : uint8_t { White, Grey, Black };
    std::vector<Color> Colors(G.numSymbols(), White);
    std::vector<SymId> Path;

    // Iterative DFS with an explicit stack to find one witness cycle per
    // grey-edge discovery.
    std::function<void(SymId)> Visit = [&](SymId S) {
      Colors[S] = Grey;
      Path.push_back(S);
      for (SymId N : Edges[S]) {
        if (Colors[N] == Grey) {
          ChainLoop Loop;
          auto It = std::find(Path.begin(), Path.end(), N);
          Loop.Cycle.assign(It, Path.end());
          R.ChainLoops.push_back(std::move(Loop));
        } else if (Colors[N] == White) {
          Visit(N);
        }
      }
      Path.pop_back();
      Colors[S] = Black;
    };
    for (SymId S = 0; S < static_cast<SymId>(G.numSymbols()); ++S)
      if (!G.isTerminal(S) && Colors[S] == White)
        Visit(S);
  }

  /// Publishes the construction's outcome to the stats registry so the
  /// --stats-json surface sees the table-constructor side of the story
  /// (state counts, conflicts resolved by the maximal-munch policy,
  /// chain-loop detections) alongside the runtime phases.
  void recordStats(const BuildResult &R) const {
    StatsRegistry &S = stats();
    S.counter("tablegen.builds") += 1;
    S.counter("tablegen.states") += R.NumItemSets;
    S.counter("tablegen.items") += R.TotalItems;
    S.counter("tablegen.conflicts.shift_reduce") += R.SRConflicts.size();
    S.counter("tablegen.conflicts.reduce_reduce") += R.RRConflicts.size();
    S.counter("tablegen.conflicts.reduce_reduce_dynamic") +=
        static_cast<uint64_t>(std::count_if(
            R.RRConflicts.begin(), R.RRConflicts.end(),
            [](const ReduceReduceConflict &C) { return C.Dynamic; }));
    S.counter("tablegen.chain_loops") += R.ChainLoops.size();
    S.counter("tablegen.blocks") += R.Blocks.size();
    S.value("tablegen.build_seconds") += R.Seconds;
  }

  void detectBlocks(BuildResult &R) {
    if (!Opts.TerminalCategory)
      return;
    // Precompute categories per terminal index.
    std::vector<uint32_t> Cat(NumTerms, 0);
    for (int TI = 0; TI < NumTerms; ++TI)
      Cat[TI] = Opts.TerminalCategory(G.symbolName(G.terminals()[TI]));

    const LRTables &T = R.Tables;
    for (int S = 0; S < T.NumStates; ++S) {
      for (int TI = 0; TI < NumTerms; ++TI) {
        if (Cat[TI] == 0 || !T.actionAt(S, TI).isError())
          continue;
        for (int TJ = 0; TJ < NumTerms; ++TJ) {
          if (TJ == TI || Cat[TJ] != Cat[TI] ||
              T.actionAt(S, TJ).isError())
            continue;
          R.Blocks.push_back(
              {S, G.terminals()[TI], G.terminals()[TJ]});
          break;
        }
      }
    }
  }
};

} // namespace

BuildResult gg::buildTables(const Grammar &G, const BuildOptions &Opts) {
  TraceSpan Span("tablegen.build");
  BuilderImpl Impl(G, Opts);
  BuildResult R = Impl.build();
  Span.arg("states", static_cast<int64_t>(R.NumItemSets));
  Span.arg("sr_conflicts", static_cast<int64_t>(R.SRConflicts.size()));
  Span.arg("rr_conflicts", static_cast<int64_t>(R.RRConflicts.size()));
  return R;
}

std::string gg::renderBuildReport(const Grammar &G, const BuildResult &R) {
  std::string Out;
  Out += strf("states: %d, items: %zu, build time: %.3fs\n",
              R.Tables.NumStates, R.TotalItems, R.Seconds);
  Out += strf("shift/reduce conflicts resolved: %zu\n", R.SRConflicts.size());
  Out += strf("reduce/reduce conflicts resolved: %zu (%zu dynamic)\n",
              R.RRConflicts.size(),
              static_cast<size_t>(std::count_if(
                  R.RRConflicts.begin(), R.RRConflicts.end(),
                  [](const ReduceReduceConflict &C) { return C.Dynamic; })));
  if (!R.ChainLoops.empty()) {
    Out += strf("chain-production loops: %zu\n", R.ChainLoops.size());
    for (const ChainLoop &L : R.ChainLoops) {
      Out += "  loop:";
      for (SymId S : L.Cycle)
        Out += strf(" %s", G.symbolName(S).c_str());
      Out += '\n';
    }
  }
  Out += strf("potential syntactic blocks: %zu\n", R.Blocks.size());
  size_t Shown = 0;
  for (const PotentialBlock &B : R.Blocks) {
    if (++Shown > 20) {
      Out += strf("  ... and %zu more\n", R.Blocks.size() - 20);
      break;
    }
    Out += strf("  state %d: '%s' blocks although '%s' is viable\n", B.State,
                G.symbolName(B.Term).c_str(), G.symbolName(B.Witness).c_str());
  }
  return Out;
}
