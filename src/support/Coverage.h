//===- Coverage.h - the gg-coverage-v1 artifact -----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `gg-coverage-v1` artifact: which productions the matcher reduces
/// by, which parse states real input visits, which dynamic-tie points
/// fire (and what they choose), and which rows of the Figure-3
/// instruction table the semantic actions consult. This is the usage data
/// the related work builds on (Samuelsson's example-based table
/// specialization starts from it). The counts are the counts-only view
/// of the one table-event registry (support/Profile.h,
/// ProfileRegistry::coverageSnapshot()); this file holds only the format,
/// which the offline `gg-report` tool parses and merges across runs.
///
/// Every count is a property of the compiled input, not of scheduling,
/// and the JSON emits sorted keys, so the artifact for a given input is
/// byte-identical at any thread count (asserted by tests/CoverageTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_COVERAGE_H
#define GG_SUPPORT_COVERAGE_H

#include <cstdint>
#include <map>
#include <string>

namespace gg {

struct JsonValue;

/// One dynamic-tie point's recorded behavior: how often the matcher hit a
/// deferred reduce/reduce tie there, and which production each event chose.
struct DynPointHits {
  uint64_t Hits = 0;
  std::map<int, uint64_t> Chosen; ///< production id -> times chosen
};

/// A plain-data coverage artifact: what one `gg-coverage-v1` file holds.
/// The registry's coverage view builds one, and `gg-report` parses and
/// merges artifacts with it.
struct CoverageSnapshot {
  std::string Fingerprint; ///< grammar/tables identity (hex); "" = unset
  uint64_t Compiles = 0;   ///< compile() calls covered by the artifact
  uint64_t NumProds = 0, NumStates = 0, NumDynPoints = 0, NumRows = 0;
  std::map<int, uint64_t> ProdHits;  ///< production id -> reductions
  std::map<int, uint64_t> StateHits; ///< state -> visits (pushes)
  std::map<std::pair<int, int>, DynPointHits> Dyn; ///< (state, term) -> hits
  std::map<std::string, uint64_t> RowHits; ///< instruction-table row -> hits

  /// Serializes as one `gg-coverage-v1` JSON object with sorted keys.
  std::string toJson() const;

  /// Parses a `gg-coverage-v1` object. Returns false and sets \p Err on
  /// malformed input or a schema mismatch.
  bool parse(const JsonValue &V, std::string &Err);
  bool parse(const std::string &Text, std::string &Err);

  /// Adds \p Other into this artifact. Fails (false, \p Err) when the
  /// fingerprints or table shapes disagree — artifacts from different
  /// grammars must not be summed.
  bool merge(const CoverageSnapshot &Other, std::string &Err);
};

} // namespace gg

#endif // GG_SUPPORT_COVERAGE_H
