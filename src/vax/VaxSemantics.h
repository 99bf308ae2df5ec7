//===- VaxSemantics.h - phase-3 instruction generation ----------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-pattern-matching phase (paper section 5.3): replays the
/// matcher's reductions, running one semantic action per reduction.
/// Encapsulating reductions condense attributes into operand descriptors;
/// emitting reductions perform instruction selection through the
/// hand-written instruction table, idiom recognition (binding and range
/// idioms, §5.3.2), pseudo-instruction expansion (signed modulus,
/// unsigned division via library call), register management, and finally
/// output formatting (§5.4).
///
/// This mirrors the paper's organization: these routines are the
/// "VAX-specific routines hand-coded in C" standing behind the grammar's
/// semantic tags.
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_VAXSEMANTICS_H
#define GG_VAX_VAXSEMANTICS_H

#include "ir/Program.h"
#include "match/Matcher.h"
#include "vax/Emitter.h"
#include "vax/InstrTable.h"
#include "vax/RegisterManager.h"

#include <string>
#include <vector>

namespace gg {

/// Knobs for the idiom ablation (experiment E6). The idiom recognizer is
/// "optional in the sense that if it were omitted, correct code would
/// still be generated" — pseudo-instruction expansion is not optional and
/// always runs.
struct CgOptions {
  bool BindingIdioms = true; ///< 3-address -> 2-address when bound
  bool RangeIdioms = true;   ///< inc/dec/clr/tst/ashl specializations
  bool CCTracking = true;    ///< skip tst when condition codes are set
};

/// Counters reported by the idiom experiment.
struct IdiomStats {
  unsigned BindingApplied = 0;
  unsigned RangeApplied = 0;
  unsigned CCTestsElided = 0;
  unsigned PseudoExpansions = 0;
};

/// One semantic value on the replay stack: the operand an encapsulating
/// reduction condensed, or the IR leaf a shift captured.
struct SemVal {
  Operand Opnd;
  const Node *Leaf = nullptr;
};

/// Per-function instruction generation state.
class VaxSemantics {
public:
  VaxSemantics(AsmEmitter &Emit, Function &F, const CgOptions &Opts);

  /// Replays one matched statement tree. On failure sets \p Err (this
  /// indicates a description/semantics bug, not bad input).
  bool replay(const Grammar &G, const std::vector<LinToken> &Input,
              const std::vector<MatchStep> &Steps, std::string &Err);

  /// Statement-level helpers used by the driver between matched trees.
  void emitLabel(InternedString L);
  void emitJump(InternedString L);
  void emitCall(InternedString Fn, int NumArgs);
  void emitRet();

  RegisterManager &regs() { return RM; }
  const RegAllocStats &regStats() const { return RM.stats(); }
  const IdiomStats &idiomStats() const { return Idioms; }
  void invalidateCC() { LastCCReg = -1; }

  /// Discards all per-statement state after a failed match or replay so
  /// the next statement starts clean — the degradation ladder calls this
  /// before splicing in fallback code for the failed tree.
  void resetAfterFailure();

private:
  AsmEmitter &Emit;
  Function &F;
  CgOptions Opts;
  RegisterManager RM;
  IdiomStats Idioms;
  std::vector<SemVal> Stack;
  size_t FrameBase = 0;  ///< stack index where the in-flight reduction starts
  int LastCCReg = -1;    ///< register whose value the condition codes hold
  char LastCCSize = 0;   ///< size class character of that value
  std::string ReplayErr; ///< sticky error from a semantic action

  void fail(const std::string &Message);

  // --- operand plumbing --------------------------------------------------
  void spillStore(int Reg, const Operand &Cell);
  bool isSpillable(int Reg) const;
  void prepare(Operand &O);              ///< unspill if needed
  Operand ensureReg(Operand O, char SC); ///< load into a register
  Operand stabilize(Operand O, char SC); ///< strip side-effecting modes
  void setCC(const Operand &O, char SC);

  void emitInst(const std::string &Opcode, const std::vector<Operand> &Ops);

  // --- reduction dispatch --------------------------------------------------
  SemVal dispatch(const Production &P, SemVal *Vals, size_t N);
  SemVal doEncap(const Production &P, SemVal *Vals, size_t N,
                 std::string_view Base, char SC1, char SC2);
  SemVal doEmit(const Production &P, SemVal *Vals, size_t N,
                std::string_view Base, char SC1, char SC2);

  // --- instruction families -------------------------------------------------
  /// Three-operand arithmetic with idioms; returns the result operand.
  /// \p Dst null means "allocate a register destination".
  Operand arith(const InstCluster &C, char SC, bool IsUnsigned, Operand S1,
                Operand S2, const Operand *Dst);
  void move(char SC, Operand Src, Operand Dst);
  Operand unary2(const char *OpBase, char SC, Operand Src,
                 const Operand *Dst);
  Operand convert(char FromSC, char ToSC, bool SrcUnsigned, Operand Src,
                  const Operand *Dst);
  Operand andOp(char SC, Operand S1, Operand S2, const Operand *Dst);
  Operand shift(char SC, bool Right, bool IsUnsigned, Operand Val,
                Operand Cnt, const Operand *Dst);
  Operand modulus(char SC, bool IsUnsigned, Operand A, Operand B,
                  const Operand *Dst);
  Operand libCall2(const char *Fn, Operand A, Operand B, const Operand *Dst);
  void compareBranch(char SC, Cond C, Operand A, Operand B,
                     InternedString Target);
  Operand bridgeAddress(char MemSC, Operand *ConOpt, Operand *BaseOpt,
                        Operand S1, Operand S2);
};

} // namespace gg

#endif // GG_VAX_VAXSEMANTICS_H
