//===- MatcherExtraTest.cpp - matcher, mdl and workload extras -----------------===//

#include "ir/Linearize.h"
#include "frontend/Parser.h"
#include "fuzz/TableSim.h"
#include "match/Matcher.h"
#include "TokenNames.h"
#include "support/Profile.h"
#include "mdl/SpecParser.h"
#include "tablegen/TableBuilder.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace gg;

namespace {

struct Built {
  Grammar G;
  BuildResult R;
  std::unique_ptr<PackedTables> P;
  std::unique_ptr<Matcher> M;
};

Built buildFrom(const char *Spec) {
  Built B;
  DiagnosticSink Diags;
  MdSpec S;
  EXPECT_TRUE(parseSpec(Spec, S, Diags)) << Diags.renderAll();
  EXPECT_TRUE(S.expand(B.G, Diags)) << Diags.renderAll();
  B.G.freeze();
  B.R = buildTables(B.G);
  EXPECT_TRUE(B.R.Ok) << B.R.Error;
  B.P = std::make_unique<PackedTables>(PackedTables::pack(B.R.Tables));
  B.M = std::make_unique<Matcher>(B.G, *B.P);
  return B;
}

/// Two equally long reductions for the same input: Const_l can condense as
/// either flavour, and the table constructor defers the tie to match time.
const char *TwoFlavourSpec = R"(
%start s
s <- Assign_l flavA : emit useA
s <- Assign_l flavB : emit useB
flavA <- Const_l : encap a
flavB <- Const_l : encap b
)";

TEST(MatcherExtra, DeferredTieTakesTableDefault) {
  Built B = buildFrom(TwoFlavourSpec);

  // There is a genuine reduce/reduce tie.
  bool SawDynamic = false;
  for (const ReduceReduceConflict &C : B.R.RRConflicts)
    SawDynamic |= C.Dynamic;
  ASSERT_TRUE(SawDynamic);

  Interner Syms;
  NodeArena A;
  Node *Tree =
      A.bin(Op::Assign, Ty::L, A.con(Ty::L, 77), A.con(Ty::L, 5));
  // Use a flat 2-token input crafted for this grammar.
  std::vector<LinToken> Input;
  Input.push_back({codeNamed("Assign_l"), Tree});
  Input.push_back({codeNamed("Const_l"), Tree->left()});

  auto TagOfFirstEncap = [&](const MatchResult &MR) -> std::string {
    for (const MatchStep &S : MR.Steps)
      if (S.Kind == MatchStep::Reduce &&
          B.G.prod(S.ProdId).Kind == ActionKind::Encap)
        return B.G.prod(S.ProdId).SemTag;
    return "";
  };

  // The static default is the earlier production.
  MatchResult Default = B.M->match(Input);
  ASSERT_TRUE(Default.Ok) << Default.Error;
  EXPECT_EQ(TagOfFirstEncap(Default), "a");
}

//===----------------------------------------------------------------------===//
// lrStep: one case per step outcome, and the matcher and the table
// simulator agreeing on the same tables.
//===----------------------------------------------------------------------===//

const char *AddSpec = R"(
%start s
s <- Plus_l r r : emit add
r <- Const_l : encap c
)";

int prodTagged(const Grammar &G, const std::string &Tag) {
  for (const Production &P : G.productions())
    if (P.SemTag == Tag)
      return P.Id;
  ADD_FAILURE() << "no production tagged " << Tag;
  return -1;
}

int term(const Grammar &G, const char *Name) {
  int TI = G.termIndexOf(Name);
  EXPECT_GE(TI, 0) << Name;
  return TI;
}

/// Re-packs \p B's tables from the hand-edited dense copy \p Dense and
/// rebinds its matcher to them.
void repack(Built &B, const LRTables &Dense) {
  B.P = std::make_unique<PackedTables>(PackedTables::pack(Dense));
  B.M = std::make_unique<Matcher>(B.G, *B.P);
}

/// AddSpec with the goto on `r` after Plus_l removed; returns the state
/// that Plus_l shifts to.
int dropGotoAfterPlus(Built &B) {
  LRTables Dense = B.R.Tables;
  const int PlusState = Dense.actionAt(0, term(B.G, "Plus_l")).Target;
  const int RIdx = B.G.ntIndex(B.G.lookup("r"));
  Dense.Gotos[static_cast<size_t>(PlusState) * Dense.NumNonterms + RIdx] = -1;
  repack(B, Dense);
  return PlusState;
}

/// AddSpec with state 0 "reducing" the three-symbol rule on Plus_l, on a
/// stack that holds only state 0; returns that rule.
int reduceOnEmptyStack(Built &B) {
  LRTables Dense = B.R.Tables;
  const int AddProd = prodTagged(B.G, "add");
  Dense.actionAt(0, term(B.G, "Plus_l")) = Action{ActionType::Reduce, AddProd};
  repack(B, Dense);
  return AddProd;
}

TEST(LrStep, ShiftReduceAccept) {
  Built B = buildFrom(AddSpec);
  const Grammar &G = B.G;
  const int Plus = term(G, "Plus_l"), Con = term(G, "Const_l"),
            Eof = G.termIndex(G.eofSymbol());
  std::vector<int> Stack{0};

  StepEvent E = lrStep(G, *B.P, Stack, Plus, 100);
  EXPECT_EQ(E.Kind, StepEvent::Shift);
  EXPECT_EQ(E.State, 0);
  EXPECT_EQ(Stack, (std::vector<int>{0, E.Pushed}));
  const int PlusState = E.Pushed;

  E = lrStep(G, *B.P, Stack, Con, 100);
  ASSERT_EQ(E.Kind, StepEvent::Shift);
  EXPECT_EQ(E.State, PlusState);

  // The second Const_l is the lookahead that reduces the first.
  E = lrStep(G, *B.P, Stack, Con, 100);
  ASSERT_EQ(E.Kind, StepEvent::Reduce);
  EXPECT_EQ(E.Prod, prodTagged(G, "c"));
  EXPECT_FALSE(E.Tie);
  EXPECT_EQ(Stack.size(), 3u);
  EXPECT_EQ(Stack[1], PlusState);
  EXPECT_EQ(Stack.back(), E.Pushed);

  ASSERT_EQ(lrStep(G, *B.P, Stack, Con, 100).Kind, StepEvent::Shift);
  for (int Guard = 0; Guard < 8; ++Guard) {
    E = lrStep(G, *B.P, Stack, Eof, 100);
    if (E.Kind != StepEvent::Reduce)
      break;
  }
  EXPECT_EQ(E.Kind, StepEvent::Accept);
  // Accept changes nothing: the stack holds the start symbol's state.
  std::vector<int> Before = Stack;
  EXPECT_EQ(lrStep(G, *B.P, Stack, Eof, 100).Kind, StepEvent::Accept);
  EXPECT_EQ(Stack, Before);
}

TEST(LrStep, NoActionLeavesStackUnchanged) {
  Built B = buildFrom(AddSpec);
  std::vector<int> Stack{0};
  StepEvent E = lrStep(B.G, *B.P, Stack, term(B.G, "Const_l"), 100);
  EXPECT_EQ(E.Kind, StepEvent::NoAction);
  EXPECT_EQ(E.State, 0);
  EXPECT_EQ(Stack, std::vector<int>{0});
}

TEST(LrStep, DepthCapChecksBeforeTheAction) {
  Built B = buildFrom(AddSpec);
  const int Plus = term(B.G, "Plus_l"), Con = term(B.G, "Const_l");
  std::vector<int> Stack{0};
  // A stack of exactly the cap may still step; one deeper may not.
  ASSERT_EQ(lrStep(B.G, *B.P, Stack, Plus, 1).Kind, StepEvent::Shift);
  std::vector<int> Before = Stack;
  StepEvent E = lrStep(B.G, *B.P, Stack, Con, 1);
  EXPECT_EQ(E.Kind, StepEvent::DepthCap);
  EXPECT_EQ(E.State, Before.back());
  EXPECT_EQ(Stack, Before);

  // The matcher reports the same outcome through its configured cap.
  Matcher Capped(B.G, *B.P, MatcherOptions{1});
  std::vector<LinToken> Input{tok("Plus_l"), tok("Const_l")};
  MatchResult MR = Capped.match(Input);
  ASSERT_TRUE(MR.Block);
  EXPECT_EQ(MR.Block->Why, BlockReport::Cause::DepthCap);
  EXPECT_EQ(MR.Block->TokenPos, 1u);
}

TEST(LrStep, MissingGotoLeavesStackPopped) {
  Built B = buildFrom(AddSpec);
  const int Plus = term(B.G, "Plus_l"), Con = term(B.G, "Const_l");
  const int PlusState = dropGotoAfterPlus(B);

  std::vector<int> Stack{0};
  ASSERT_EQ(lrStep(B.G, *B.P, Stack, Plus, 100).Kind, StepEvent::Shift);
  ASSERT_EQ(lrStep(B.G, *B.P, Stack, Con, 100).Kind, StepEvent::Shift);
  StepEvent E = lrStep(B.G, *B.P, Stack, Con, 100);
  EXPECT_EQ(E.Kind, StepEvent::MissingGoto);
  EXPECT_EQ(E.Prod, prodTagged(B.G, "c"));
  EXPECT_EQ(Stack, (std::vector<int>{0, PlusState}));
}

TEST(LrStep, UnderflowLeavesStackUnchanged) {
  Built B = buildFrom(AddSpec);
  const int AddProd = reduceOnEmptyStack(B);
  std::vector<int> Stack{0};
  StepEvent E = lrStep(B.G, *B.P, Stack, term(B.G, "Plus_l"), 100);
  EXPECT_EQ(E.Kind, StepEvent::Underflow);
  EXPECT_EQ(E.Prod, AddProd);
  EXPECT_EQ(Stack, std::vector<int>{0});
}

TEST(LrStep, TieFlagMarksTheDeferredReduce) {
  Built B = buildFrom(TwoFlavourSpec);
  const Grammar &G = B.G;
  std::vector<int> Stack{0};
  EXPECT_FALSE(lrStep(G, *B.P, Stack, term(G, "Assign_l"), 100).Tie);
  EXPECT_FALSE(lrStep(G, *B.P, Stack, term(G, "Const_l"), 100).Tie);
  StepEvent E = lrStep(G, *B.P, Stack, G.termIndex(G.eofSymbol()), 100);
  ASSERT_EQ(E.Kind, StepEvent::Reduce);
  EXPECT_TRUE(E.Tie);
  EXPECT_EQ(E.Prod, prodTagged(G, "a")); // the table default
  EXPECT_NE(B.P->dynChoicesAt(E.State, G.termIndex(G.eofSymbol())), nullptr);
}

/// Runs \p Names through the real Matcher (observed via the table-event
/// registry's coverage view) and through TableSim on the same tables, and
/// checks that both report the same reductions, state visits, tie points
/// and verdict.
void expectMatcherAgreesWithSim(const Built &B,
                                const std::vector<std::string> &Names) {
  SCOPED_TRACE(::testing::PrintToString(Names));
  std::vector<LinToken> Input;
  std::vector<int> Idxs;
  for (const std::string &N : Names) {
    Input.push_back(tok(N));
    Idxs.push_back(B.G.termIndexOf(N));
  }
  profile().enableCoverage();
  profile().sizeTables(B.G.numProductions(), B.P->numStates(),
                       B.P->numDynPoints(), {});
  profile().reset();
  const MatchResult MR = B.M->match(Input);
  const CoverageSnapshot Cov = profile().coverageSnapshot();
  const SimTrace Tr = TableSim(B.G, *B.P).run(Idxs);

  EXPECT_EQ(MR.Ok, Tr.Accepted) << MR.Error << " / " << Tr.Error;
  // The matcher lists completed reduces; the simulator also lists one
  // whose goto failed. Both order them the same way.
  std::vector<int> Reduces;
  for (const MatchStep &S : MR.Steps)
    if (S.Kind == MatchStep::Reduce)
      Reduces.push_back(S.ProdId);
  ASSERT_LE(Reduces.size(), Tr.Reduces.size());
  EXPECT_EQ(Reduces, std::vector<int>(Tr.Reduces.begin(),
                                      Tr.Reduces.begin() + Reduces.size()));

  auto Counts = [](const std::vector<int> &Ids) {
    std::map<int, uint64_t> M;
    for (int I : Ids)
      ++M[I];
    return M;
  };
  EXPECT_EQ(Cov.ProdHits, Counts(Tr.Reduces));
  EXPECT_EQ(Cov.StateHits, Counts(Tr.States));
  std::set<std::pair<int, int>> Consulted(Tr.DynConsults.begin(),
                                          Tr.DynConsults.end());
  std::set<std::pair<int, int>> Hit;
  for (const auto &[Point, Hits] : Cov.Dyn)
    Hit.insert(Point);
  EXPECT_EQ(Hit, Consulted);
}

TEST(LrStep, MatcherAndTableSimAgree) {
  Built Add = buildFrom(AddSpec);
  expectMatcherAgreesWithSim(Add, {"Plus_l", "Const_l", "Const_l"});
  expectMatcherAgreesWithSim(Add, {"Plus_l", "Const_l"});
  expectMatcherAgreesWithSim(Add, {"Const_l"});

  Built Tie = buildFrom(TwoFlavourSpec);
  expectMatcherAgreesWithSim(Tie, {"Assign_l", "Const_l"});

  Built NoGoto = buildFrom(AddSpec);
  dropGotoAfterPlus(NoGoto);
  expectMatcherAgreesWithSim(NoGoto, {"Plus_l", "Const_l", "Const_l"});

  Built Under = buildFrom(AddSpec);
  reduceOnEmptyStack(Under);
  expectMatcherAgreesWithSim(Under, {"Plus_l", "Const_l", "Const_l"});
  MatchResult MR = Under.M->match({tok("Plus_l")});
  ASSERT_TRUE(MR.Block);
  EXPECT_EQ(MR.Block->Why, BlockReport::Cause::Underflow);
}

TEST(MatcherExtra, UnknownTerminalReported) {
  const char *Spec = R"(
%start s
s <- Const_l : emit c
)";
  Built B = buildFrom(Spec);
  std::vector<LinToken> Input;
  Input.push_back(tok("Plus_l")); // a node shape this grammar lacks
  MatchResult MR = B.M->match(Input);
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("no terminal symbol 'Plus_l'"),
            std::string::npos);
}

TEST(MatcherExtra, SyntacticBlockNamesStateAndToken) {
  const char *Spec = R"(
%start s
s <- Plus_l Const_l Const_l : emit add
)";
  Built B = buildFrom(Spec);
  std::vector<LinToken> Input;
  Input.push_back(tok("Const_l")); // Plus_l expected first
  MatchResult MR = B.M->match(Input);
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("syntactic block"), std::string::npos);
  EXPECT_NE(MR.Error.find("token 0"), std::string::npos);
}

TEST(MatcherExtra, TruncatedInputBlocksAtEnd) {
  const char *Spec = R"(
%start s
s <- Plus_l Const_l Const_l : emit add
)";
  Built B = buildFrom(Spec);
  std::vector<LinToken> Input;
  Input.push_back(tok("Plus_l"));
  Input.push_back(tok("Const_l"));
  MatchResult MR = B.M->match(Input);
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("$end"), std::string::npos);
}

TEST(SpecParserExtra, CommentsAndBlankLines) {
  const char *Spec = "# leading comment\n"
                     "\n"
                     "%start s    -- trailing comment\n"
                     "s <- X : emit x  # another\n";
  DiagnosticSink D;
  MdSpec S;
  ASSERT_TRUE(parseSpec(Spec, S, D)) << D.renderAll();
  EXPECT_EQ(S.Rules.size(), 1u);
  EXPECT_EQ(S.StartSymbol, "s");
}

TEST(SpecParserExtra, BridgeFlagParsed) {
  const char *Spec = "%start s\ns <- X : emit x bridge\n";
  DiagnosticSink D;
  MdSpec S;
  ASSERT_TRUE(parseSpec(Spec, S, D));
  EXPECT_TRUE(S.Rules[0].IsBridge);
  Grammar G;
  ASSERT_TRUE(S.expand(G, D));
  EXPECT_TRUE(G.prod(0).IsBridge);
}

TEST(SpecParserExtra, MissingStartDiagnosed) {
  DiagnosticSink D;
  MdSpec S;
  EXPECT_FALSE(parseSpec("s <- X : emit x\n", S, D));
  EXPECT_NE(D.renderAll().find("%start"), std::string::npos);
}

TEST(SpecParserExtra, UndefinedStartDiagnosed) {
  DiagnosticSink D;
  MdSpec S;
  ASSERT_TRUE(parseSpec("%start zz\ns <- X : emit x\n", S, D));
  Grammar G;
  EXPECT_FALSE(S.expand(G, D));
}

TEST(GrammarValidate, CatchesBadShapes) {
  {
    Grammar G;
    G.addProduction("s", {"X"}, ActionKind::Glue);
    G.setStart(G.getOrAddSymbol("X")); // terminal start
    G.freeze();
    DiagnosticSink D;
    G.validate(D);
    EXPECT_TRUE(D.hasErrors());
  }
  {
    Grammar G;
    G.addProduction("s", {"dead"}, ActionKind::Glue); // no prods for 'dead'
    G.setStart(G.lookup("s"));
    G.freeze();
    DiagnosticSink D;
    G.validate(D);
    EXPECT_TRUE(D.hasErrors());
  }
}

TEST(Workload, DeterministicAndParses) {
  std::string A = generateProgram(1234), B = generateProgram(1234),
              C = generateProgram(1235);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    Program P;
    DiagnosticSink D;
    EXPECT_TRUE(compileMiniC(generateProgram(Seed), P, D))
        << "seed " << Seed << "\n"
        << D.renderAll();
  }
}

TEST(Workload, LargeProgramScalesWithFunctions) {
  std::string Small = generateLargeProgram(7, 3);
  std::string Big = generateLargeProgram(7, 12);
  EXPECT_GT(Big.size(), Small.size() * 2);
}

} // namespace
