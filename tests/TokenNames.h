//===- TokenNames.h - matcher tokens by terminal name -----------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inverse of tokenName for hand-written matcher input: tests that feed
/// a small grammar a token stream name its terminals, and these helpers
/// turn the names into token codes. Only node shapes have codes.
///
//===----------------------------------------------------------------------===//

#ifndef GG_TESTS_TOKENNAMES_H
#define GG_TESTS_TOKENNAMES_H

#include "ir/Linearize.h"

#include <gtest/gtest.h>

#include <string_view>

namespace gg {

/// Token code whose tokenName is \p Name.
inline TokenCode codeNamed(std::string_view Name) {
  for (TokenCode C = 0; C < NumTokenCodes; ++C)
    if (tokenName(C) == Name)
      return C;
  ADD_FAILURE() << "'" << Name << "' is not a node shape";
  return 0;
}

/// A token with no node, for input that no semantic action replays.
inline LinToken tok(std::string_view Name) {
  return {codeNamed(Name), nullptr};
}

} // namespace gg

#endif // GG_TESTS_TOKENNAMES_H
