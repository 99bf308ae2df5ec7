//===- Linearize.h - prefix linearization of trees --------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns an expression tree into the prefix token stream the pattern
/// matcher parses. Each token is a small integer shape code naming a
/// grammar terminal, plus the originating node so leaf shifts can capture
/// semantic attributes. Codes are grammar-independent: a Matcher maps them
/// to its grammar's terminal indices once, at construction, so the
/// per-token path formats no names and does no hash lookups. Names are
/// rendered (tokenName) only for traces, --explain and BlockReport.
///
/// Terminal naming conventions (these are the paper's, section 3.1/6.4):
///  * typed operators append a size-class suffix: Plus_l, Const_b, Name_w;
///  * conversions carry both size classes: Cvt_b_l;
///  * the special long constants 0, 1, 2, 4 and 8 become their own
///    terminals Zero, One, Two, Four, Eight ("because of the importance
///    they play in comparisons and address construction");
///  * CBranch and Label are untyped.
///
/// Names go by size class, so Name_l covers both L and UL and Four covers
/// UL 4.
///
//===----------------------------------------------------------------------===//

#ifndef GG_IR_LINEARIZE_H
#define GG_IR_LINEARIZE_H

#include "ir/Node.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gg {

/// A token's shape: one terminal of the naming rule above.
using TokenCode = uint16_t;

/// The code space, in order: (opcode x size class), the nine Cvt_x_y
/// pairs, the five special L-class constants, then CBranch and Label.
/// The (opcode x size class) block also spans Conv, CBranch and Label,
/// whose codes tokenCode never returns; tokenName still names them by the
/// generic rule (Conv_l, ...), which no grammar uses.
enum TokenCodeLayout : TokenCode {
  NumIrOps = 0
#define GG_OP(Name, Str, Arity, Flags) +1
#include "ir/Ops.def"
  ,
  CvtTokenBase = NumIrOps * 3,              ///< + from * 3 + to
  SpecialConstTokenBase = CvtTokenBase + 9, ///< Zero One Two Four Eight
  CBranchToken = SpecialConstTokenBase + 5,
  LabelToken,
  NumTokenCodes
};

/// One token of the matcher's input: a terminal shape code plus the node
/// whose attributes the semantic actions read. Trivial, so a buffer of
/// them costs no initialization.
struct LinToken {
  TokenCode Code;
  const Node *N;
};

/// Shape code for a single node (no children).
TokenCode tokenCode(const Node *N);

/// Grammar terminal name of \p Code; a static string.
const std::string &tokenName(TokenCode Code);

/// Grammar terminal name for a single node: tokenName(tokenCode(N)).
inline const std::string &terminalName(const Node *N) {
  return tokenName(tokenCode(N));
}

/// Prefix-linearizes \p Tree into matcher input tokens.
std::vector<LinToken> linearize(const Node *Tree);

} // namespace gg

#endif // GG_IR_LINEARIZE_H
