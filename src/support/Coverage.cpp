//===- Coverage.cpp - the gg-coverage-v1 artifact -----------------------------===//

#include "support/Coverage.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Strings.h"

#include <algorithm>

using namespace gg;

//===----------------------------------------------------------------------===//
// CoverageSnapshot
//===----------------------------------------------------------------------===//

std::string CoverageSnapshot::toJson() const {
  std::string Out = strf(
      "{\"schema\":\"gg-coverage-v1\",\"fingerprint\":\"%s\","
      "\"compiles\":%llu,\"shape\":{\"productions\":%llu,\"states\":%llu,"
      "\"dyn_points\":%llu,\"instr_rows\":%llu}",
      jsonEscape(Fingerprint).c_str(),
      static_cast<unsigned long long>(Compiles),
      static_cast<unsigned long long>(NumProds),
      static_cast<unsigned long long>(NumStates),
      static_cast<unsigned long long>(NumDynPoints),
      static_cast<unsigned long long>(NumRows));
  bool First;

  Out += ",\"productions\":{";
  First = true;
  for (const auto &[Id, Hits] : ProdHits) {
    Out += strf("%s\"%d\":%llu", First ? "" : ",", Id,
                static_cast<unsigned long long>(Hits));
    First = false;
  }
  Out += "},\"states\":{";
  First = true;
  for (const auto &[Id, Hits] : StateHits) {
    Out += strf("%s\"%d\":%llu", First ? "" : ",", Id,
                static_cast<unsigned long long>(Hits));
    First = false;
  }
  Out += "},\"dyn\":{";
  First = true;
  for (const auto &[Key, P] : Dyn) {
    Out += strf("%s\"%d:%d\":{\"hits\":%llu,\"chosen\":{", First ? "" : ",",
                Key.first, Key.second,
                static_cast<unsigned long long>(P.Hits));
    bool FirstC = true;
    for (const auto &[Prod, N] : P.Chosen) {
      Out += strf("%s\"%d\":%llu", FirstC ? "" : ",", Prod,
                  static_cast<unsigned long long>(N));
      FirstC = false;
    }
    Out += "}}";
    First = false;
  }
  Out += "},\"instr_rows\":{";
  First = true;
  for (const auto &[Name, Hits] : RowHits) {
    Out += strf("%s\"%s\":%llu", First ? "" : ",", jsonEscape(Name).c_str(),
                static_cast<unsigned long long>(Hits));
    First = false;
  }
  Out += "}}";
  return Out;
}

namespace {

bool readIdMap(const JsonValue *V, std::map<int, uint64_t> &Out,
               const char *What, std::string &Err) {
  if (!V || !V->isObject()) {
    Err = strf("missing or non-object \"%s\"", What);
    return false;
  }
  for (const auto &[Key, Val] : V->Obj) {
    int Id;
    if (!parseIdKey(Key, Id) || !Val.isNumber()) {
      Err = strf("bad entry \"%s\" in \"%s\"", Key.c_str(), What);
      return false;
    }
    Out[Id] += Val.asU64();
  }
  return true;
}

} // namespace

bool CoverageSnapshot::parse(const JsonValue &V, std::string &Err) {
  *this = CoverageSnapshot();
  const JsonValue *Schema = V.find("schema");
  if (!Schema || Schema->Str != "gg-coverage-v1") {
    Err = "not a gg-coverage-v1 artifact";
    return false;
  }
  if (const JsonValue *FP = V.find("fingerprint"))
    Fingerprint = FP->Str;
  Compiles = V.find("compiles") ? V.find("compiles")->asU64() : 0;
  const JsonValue *Shape = V.find("shape");
  if (!Shape || !Shape->isObject()) {
    Err = "missing \"shape\"";
    return false;
  }
  NumProds = static_cast<uint64_t>(Shape->numberOr("productions"));
  NumStates = static_cast<uint64_t>(Shape->numberOr("states"));
  NumDynPoints = static_cast<uint64_t>(Shape->numberOr("dyn_points"));
  NumRows = static_cast<uint64_t>(Shape->numberOr("instr_rows"));
  if (!readIdMap(V.find("productions"), ProdHits, "productions", Err) ||
      !readIdMap(V.find("states"), StateHits, "states", Err))
    return false;
  const JsonValue *D = V.find("dyn");
  if (!D || !D->isObject()) {
    Err = "missing \"dyn\"";
    return false;
  }
  for (const auto &[Key, Val] : D->Obj) {
    size_t Colon = Key.find(':');
    int State, Term;
    if (Colon == std::string::npos ||
        !parseIdKey(Key.substr(0, Colon), State) ||
        !parseIdKey(Key.substr(Colon + 1), Term) || !Val.isObject()) {
      Err = strf("bad dyn key \"%s\"", Key.c_str());
      return false;
    }
    DynPointHits &P = Dyn[{State, Term}];
    P.Hits = static_cast<uint64_t>(Val.numberOr("hits"));
    if (const JsonValue *C = Val.find("chosen"))
      if (!readIdMap(C, P.Chosen, "chosen", Err))
        return false;
  }
  const JsonValue *Rows = V.find("instr_rows");
  if (!Rows || !Rows->isObject()) {
    Err = "missing \"instr_rows\"";
    return false;
  }
  for (const auto &[Name, Val] : Rows->Obj) {
    if (!Val.isNumber()) {
      Err = strf("bad instr_rows entry \"%s\"", Name.c_str());
      return false;
    }
    RowHits[Name] = Val.asU64();
  }
  return true;
}

bool CoverageSnapshot::parse(const std::string &Text, std::string &Err) {
  JsonValue V;
  if (!parseJson(Text, V, Err))
    return false;
  return parse(V, Err);
}

bool CoverageSnapshot::merge(const CoverageSnapshot &Other, std::string &Err) {
  if (!Fingerprint.empty() && !Other.Fingerprint.empty() &&
      Fingerprint != Other.Fingerprint) {
    Err = strf("fingerprint mismatch (%s vs %s): artifacts come from "
               "different grammars/tables",
               Fingerprint.c_str(), Other.Fingerprint.c_str());
    return false;
  }
  if ((NumProds && Other.NumProds && NumProds != Other.NumProds) ||
      (NumStates && Other.NumStates && NumStates != Other.NumStates)) {
    Err = "table shape mismatch: artifacts come from different tables";
    return false;
  }
  if (Fingerprint.empty())
    Fingerprint = Other.Fingerprint;
  NumProds = std::max(NumProds, Other.NumProds);
  NumStates = std::max(NumStates, Other.NumStates);
  NumDynPoints = std::max(NumDynPoints, Other.NumDynPoints);
  NumRows = std::max(NumRows, Other.NumRows);
  Compiles += Other.Compiles;
  for (const auto &[Id, H] : Other.ProdHits)
    ProdHits[Id] += H;
  for (const auto &[Id, H] : Other.StateHits)
    StateHits[Id] += H;
  for (const auto &[Key, P] : Other.Dyn) {
    DynPointHits &Mine = Dyn[Key];
    Mine.Hits += P.Hits;
    for (const auto &[Prod, N] : P.Chosen)
      Mine.Chosen[Prod] += N;
  }
  for (const auto &[Name, H] : Other.RowHits)
    RowHits[Name] += H;
  return true;
}
