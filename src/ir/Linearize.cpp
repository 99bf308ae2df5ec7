//===- Linearize.cpp - prefix linearization of trees ----------------------===//

#include "ir/Linearize.h"
#include "support/Error.h"
#include "support/Strings.h"

#include <iterator>

using namespace gg;

TokenCode gg::tokenCode(const Node *N) {
  assert(N && "tokenCode on null node");
  const auto SC = static_cast<TokenCode>(sizeClassOf(N->Type));
  switch (N->Opcode) {
  case Op::Const: {
    // The special long constants get their own terminal symbols (§6.4):
    // Zero One Two Four Eight.
    static constexpr int8_t Special[9] = {0, 1, 2, -1, 3, -1, -1, -1, 4};
    if (SC == static_cast<TokenCode>(SizeClass::L) && N->Value >= 0 &&
        N->Value <= 8 && Special[N->Value] >= 0)
      return SpecialConstTokenBase + Special[N->Value];
    break;
  }
  case Op::Conv:
    assert(N->left() && "Conv without operand");
    return CvtTokenBase +
           static_cast<TokenCode>(sizeClassOf(N->left()->Type)) * 3 + SC;
  case Op::CBranch:
    return CBranchToken;
  case Op::Label:
    return LabelToken;
  default:
    break;
  }
  return static_cast<TokenCode>(N->Opcode) * 3 + SC;
}

const std::string &gg::tokenName(TokenCode Code) {
  static const std::vector<std::string> Names = [] {
    const SizeClass Classes[] = {SizeClass::B, SizeClass::W, SizeClass::L};
    std::vector<std::string> V;
    V.reserve(NumTokenCodes);
    for (int O = 0; O < NumIrOps; ++O)
      for (SizeClass SC : Classes)
        V.push_back(strf("%s_%c", opName(static_cast<Op>(O)), suffixChar(SC)));
    for (SizeClass From : Classes)
      for (SizeClass To : Classes)
        V.push_back(strf("Cvt_%c_%c", suffixChar(From), suffixChar(To)));
    for (const char *Special : {"Zero", "One", "Two", "Four", "Eight"})
      V.push_back(Special);
    V.push_back("CBranch");
    V.push_back("Label");
    assert(V.size() == NumTokenCodes && "token code layout out of sync");
    return V;
  }();
  assert(Code < NumTokenCodes && "token code out of range");
  return Names[Code];
}

namespace {
/// Writes the prefix tokens of \p N into Buf[Len..Cap) and counts every
/// token in Len, including those past Cap.
void fill(const Node *N, LinToken *Buf, size_t Cap, size_t &Len) {
  if (!N)
    return;
  if (Len < Cap)
    Buf[Len] = {tokenCode(N), N};
  ++Len;
  for (const Node *Kid : N->Kids)
    fill(Kid, Buf, Cap, Len);
}
} // namespace

std::vector<LinToken> gg::linearize(const Node *Tree) {
  // One walk into a stack buffer, then one exactly sized allocation. Only a
  // tree larger than the buffer is walked again, into its own storage.
  LinToken Buf[128];
  size_t Len = 0;
  fill(Tree, Buf, std::size(Buf), Len);
  if (Len <= std::size(Buf))
    return std::vector<LinToken>(Buf, Buf + Len);
  std::vector<LinToken> Tokens(Len);
  Len = 0;
  fill(Tree, Tokens.data(), Tokens.size(), Len);
  return Tokens;
}
