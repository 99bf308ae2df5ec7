//===- CoverageTest.cpp - table coverage profiler tests -----------------------===//
//
// Covers the gg-coverage-v1 pipeline end to end: the registry's counting
// semantics (off-by-default, sharded counters, out-of-range safety),
// artifact serialization and merging, and the determinism contract — the
// artifact for a given input is byte-identical at any worker count and
// with the profile view on or off.
//
// The registry is process-global; ctest runs each TEST in its own process
// (gtest_discover_tests), so every test starts from the default-off state.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "support/Json.h"
#include "support/Profile.h"
#include "vax/VaxTarget.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace gg;

namespace {

// The counts-only view of the one table-event registry (support/Profile.h).
TEST(CoverageRegistry, OffByDefaultThenRecords) {
  ProfileRegistry &R = profile();
  R.sizeTables(8, 8, 4, {"mov"});
  EXPECT_EQ(R.gate(), 0u) << "recording must be off by default";
  R.noteInstrRow(0);
  R.noteCompile();
  CoverageSnapshot Off = R.coverageSnapshot();
  EXPECT_TRUE(Off.ProdHits.empty()) << "recording while disabled";
  EXPECT_TRUE(Off.StateHits.empty());
  EXPECT_TRUE(Off.RowHits.empty());
  EXPECT_TRUE(Off.Dyn.empty());
  EXPECT_EQ(Off.Compiles, 0u);

  R.enableCoverage();
  const uint8_t G = R.gate();
  EXPECT_EQ(G, ProfileRegistry::Count);
  R.noteStep(G, {0, 2, 1}, 0);            // reduce by 1, push 2
  R.noteStep(G, {3, 2, 1, 0, true}, 0);   // the same at tie point (3, 0)
  R.noteStep(G, {3, -1, 1, 0, true}, 0);  // ... whose goto then fails
  R.noteInstrRow(0);
  R.noteCompile();
  CoverageSnapshot On = R.coverageSnapshot();
  EXPECT_EQ(On.ProdHits[1], 3u) << "attempted reduces count";
  EXPECT_EQ(On.StateHits[2], 2u) << "pushes count";
  EXPECT_EQ((On.Dyn[{3, 0}].Hits), 2u);
  EXPECT_EQ((On.Dyn[{3, 0}].Chosen[1]), 2u);
  EXPECT_EQ(On.RowHits["mov"], 1u);
  EXPECT_EQ(On.Compiles, 1u);
  EXPECT_EQ(On.NumProds, 8u);
  EXPECT_EQ(On.NumDynPoints, 4u);
  // Counting alone charges no time: the profile view stays empty.
  ProfileSnapshot P = R.snapshot();
  EXPECT_TRUE(P.States.empty());
  EXPECT_TRUE(P.Prods.empty());
  EXPECT_TRUE(P.Dyn.empty());
  EXPECT_EQ(P.Compiles, 0u);
}

TEST(CoverageRegistry, OutOfRangeIdsAreDroppedNotFatal) {
  ProfileRegistry &R = profile();
  R.enableCoverage();
  R.sizeTables(4, 4, 0, {});
  R.reset(); // counter sizes are grow-only and process-global; start clean
  const uint8_t G = R.gate();
  R.noteStep(G, {0, -7, -1}, 0);
  R.noteStep(G, {0, 1 << 20, 1 << 20}, 0);
  R.noteInstrRow(1 << 20);
  CoverageSnapshot S = R.coverageSnapshot();
  EXPECT_TRUE(S.ProdHits.empty());
  EXPECT_TRUE(S.StateHits.empty());
  EXPECT_TRUE(S.RowHits.empty());
}

TEST(CoverageRegistry, ResetZeroesHitsAndKeepsShape) {
  ProfileRegistry &R = profile();
  R.enableCoverage();
  R.sizeTables(8, 8, 4, {"mov", "add"});
  R.setFingerprint("deadbeef00000000");
  R.noteStep(R.gate(), {1, 2, 3, 1, true}, 0);
  R.noteInstrRow(0);
  R.noteCompile();
  R.reset();
  CoverageSnapshot S = R.coverageSnapshot();
  EXPECT_TRUE(S.ProdHits.empty());
  EXPECT_TRUE(S.StateHits.empty());
  EXPECT_TRUE(S.RowHits.empty());
  EXPECT_TRUE(S.Dyn.empty());
  EXPECT_EQ(S.Compiles, 0u);
  EXPECT_EQ(S.NumProds, 8u) << "sizes survive reset";
  EXPECT_EQ(S.NumRows, 2u);
  EXPECT_EQ(S.Fingerprint, "deadbeef00000000");
}

TEST(CoverageRegistry, ShardsSumExactlyUnderContention) {
  ProfileRegistry &R = profile();
  R.enableCoverage();
  R.sizeTables(4, 4, 0, {});
  R.reset();
  const uint8_t G = R.gate();
  constexpr int Threads = 8, PerThread = 20000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&R, G] {
      for (int I = 0; I < PerThread; ++I)
        R.noteStep(G, {0, I & 3, 2}, 0);
    });
  for (std::thread &T : Pool)
    T.join();
  CoverageSnapshot S = R.coverageSnapshot();
  EXPECT_EQ(S.ProdHits[2], uint64_t(Threads) * PerThread);
  uint64_t StateTotal = 0;
  for (const auto &[Id, H] : S.StateHits)
    StateTotal += H;
  EXPECT_EQ(StateTotal, uint64_t(Threads) * PerThread);
}

TEST(CoverageSnapshot, JsonRoundTrip) {
  CoverageSnapshot S;
  S.Fingerprint = "0123456789abcdef";
  S.Compiles = 7;
  S.NumProds = 100;
  S.NumStates = 200;
  S.NumDynPoints = 50;
  S.NumRows = 3;
  S.ProdHits = {{2, 10}, {99, 1}};
  S.StateHits = {{0, 5}, {13, 2}};
  S.Dyn[{4, 1}].Hits = 3;
  S.Dyn[{4, 1}].Chosen = {{2, 2}, {5, 1}};
  S.RowHits = {{"add", 4}, {"mov", 9}};

  std::string Err;
  CoverageSnapshot Back;
  ASSERT_TRUE(Back.parse(S.toJson(), Err)) << Err;
  EXPECT_EQ(Back.Fingerprint, S.Fingerprint);
  EXPECT_EQ(Back.Compiles, S.Compiles);
  EXPECT_EQ(Back.NumProds, S.NumProds);
  EXPECT_EQ(Back.NumStates, S.NumStates);
  EXPECT_EQ(Back.NumDynPoints, S.NumDynPoints);
  EXPECT_EQ(Back.NumRows, S.NumRows);
  EXPECT_EQ(Back.ProdHits, S.ProdHits);
  EXPECT_EQ(Back.StateHits, S.StateHits);
  EXPECT_EQ(Back.RowHits, S.RowHits);
  ASSERT_EQ(Back.Dyn.size(), 1u);
  EXPECT_EQ((Back.Dyn[{4, 1}].Hits), 3u);
  EXPECT_EQ((Back.Dyn[{4, 1}].Chosen), (S.Dyn[{4, 1}].Chosen));
  // And the round-trip is a fixed point at the byte level.
  EXPECT_EQ(Back.toJson(), S.toJson());
}

TEST(CoverageSnapshot, ParseRejectsJunk) {
  CoverageSnapshot S;
  std::string Err;
  EXPECT_FALSE(S.parse("{}", Err));
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-stats-v1\"}", Err));
  EXPECT_FALSE(S.parse("not json", Err));
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-coverage-v1\",\"shape\":{},"
                       "\"productions\":{\"xyz\":1},\"states\":{},"
                       "\"dyn\":{},\"instr_rows\":{}}",
                       Err))
      << "non-numeric production key must be rejected";
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-coverage-v1\",\"shape\":{},"
                       "\"productions\":{\"99999999999\":1},\"states\":{},"
                       "\"dyn\":{},\"instr_rows\":{}}",
                       Err))
      << "a production key above INT_MAX must be rejected, not wrapped";
}

TEST(CoverageSnapshot, MergeSumsAndChecksIdentity) {
  CoverageSnapshot A, B;
  A.Fingerprint = B.Fingerprint = "feedface00000000";
  A.NumProds = B.NumProds = 10;
  A.Compiles = 1;
  B.Compiles = 2;
  A.ProdHits = {{1, 5}};
  B.ProdHits = {{1, 7}, {2, 1}};
  A.Dyn[{0, 0}].Hits = 1;
  A.Dyn[{0, 0}].Chosen[3] = 1;
  B.Dyn[{0, 0}].Hits = 2;
  B.Dyn[{0, 0}].Chosen[3] = 2;
  B.RowHits["mov"] = 4;

  std::string Err;
  ASSERT_TRUE(A.merge(B, Err)) << Err;
  EXPECT_EQ(A.Compiles, 3u);
  EXPECT_EQ(A.ProdHits[1], 12u);
  EXPECT_EQ(A.ProdHits[2], 1u);
  EXPECT_EQ((A.Dyn[{0, 0}].Hits), 3u);
  EXPECT_EQ((A.Dyn[{0, 0}].Chosen[3]), 3u);
  EXPECT_EQ(A.RowHits["mov"], 4u);

  CoverageSnapshot Foreign;
  Foreign.Fingerprint = "0000000000000001";
  EXPECT_FALSE(A.merge(Foreign, Err));
  EXPECT_NE(Err.find("fingerprint"), std::string::npos) << Err;

  CoverageSnapshot WrongShape;
  WrongShape.Fingerprint = A.Fingerprint;
  WrongShape.NumProds = 11;
  EXPECT_FALSE(A.merge(WrongShape, Err));
}

//===----------------------------------------------------------------------===//
// The pipeline contract: real compiles record, and the artifact is a
// property of the input alone — byte-identical at any worker count.
//===----------------------------------------------------------------------===//

std::string compileCorpusAndSnapshot(const VaxTarget &Target, int Threads) {
  profile().reset();
  for (int Case = 0; Case < 6; ++Case) {
    GenOptions GOpts;
    GOpts.Functions = 4 + Case % 3;
    GOpts.StmtsPerFunction = 6 + Case % 5;
    Program P;
    DiagnosticSink Diags;
    std::string Source = generateProgram(0xD1FF0000u + Case, GOpts);
    EXPECT_TRUE(compileMiniC(Source, P, Diags)) << Diags.renderAll();
    CodeGenOptions Opts;
    Opts.Parallel.Threads = Threads;
    GGCodeGenerator CG(Target, Opts);
    std::string Asm, Err;
    EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
  }
  return profile().coverageSnapshot().toJson();
}

TEST(CoveragePipeline, RealCompileRecordsEverything) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  profile().enableCoverage();

  Program P;
  DiagnosticSink Diags;
  ASSERT_TRUE(compileMiniC("int main() { int i; int s; s = 0;"
                           " for (i = 0; i < 9; i = i + 1) s = s + i * i;"
                           " print(s); return s; }",
                           P, Diags));
  GGCodeGenerator CG(*Target);
  std::string Asm;
  ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;

  CoverageSnapshot S = profile().coverageSnapshot();
  EXPECT_EQ(S.Compiles, 1u);
  EXPECT_EQ(S.NumProds, Target->grammar().numProductions());
  EXPECT_FALSE(S.ProdHits.empty());
  EXPECT_FALSE(S.StateHits.empty());
  EXPECT_FALSE(S.RowHits.empty()) << "semantic actions must record rows";
  EXPECT_EQ(S.Fingerprint,
            VaxTarget::fingerprint(Target->grammar(), Target->packed()));
  // The artifact itself is valid gg-coverage-v1.
  CoverageSnapshot Back;
  ASSERT_TRUE(Back.parse(S.toJson(), Err)) << Err;
  EXPECT_EQ(Back.toJson(), S.toJson());
}

TEST(CoveragePipeline, ArtifactIdenticalAcrossWorkerCounts) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  profile().enableCoverage();

  std::string Baseline = compileCorpusAndSnapshot(*Target, 1);
  ASSERT_NE(Baseline.find("\"productions\":{\""), std::string::npos)
      << "corpus compile recorded nothing";
  for (int Threads : {2, 4, 8})
    EXPECT_EQ(compileCorpusAndSnapshot(*Target, Threads), Baseline)
        << "coverage artifact drifted at --threads=" << Threads;
}

// Both artifacts are views of one store: turning the other view on must
// not change a byte of either. Each view is compiled solo, then both
// together, at four workers.
TEST(CoveragePipeline, EachArtifactMatchesItsSoloRun) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  auto Artifacts = [&](bool Count, bool Time) {
    profile().enableCoverage(Count);
    profile().configure(Time ? ProfileMode::Instr : ProfileMode::Off,
                        ProfileTimebase::Steps);
    std::string Cov = compileCorpusAndSnapshot(*Target, 4);
    return std::make_pair(Cov, profile().toJson());
  };
  const std::string CovSolo = Artifacts(true, false).first;
  const std::string ProfSolo = Artifacts(false, true).second;
  const auto [Cov, Prof] = Artifacts(true, true);
  ASSERT_NE(CovSolo.find("\"dyn\":{\""), std::string::npos)
      << "the corpus must reach a tie point, whose events both views share";
  ASSERT_NE(ProfSolo.find("\"states\":{\""), std::string::npos);
  EXPECT_EQ(Cov, CovSolo) << "profiling changed the coverage artifact";
  EXPECT_EQ(Prof, ProfSolo) << "coverage changed the profile artifact";
}

} // namespace
