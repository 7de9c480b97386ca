// Flat register/stack programs for element-level expressions: the one
// compiled form of a `double` comprehension head (CompileScalarFn returns
// it). The expression is compiled once into a flat postfix instruction
// vector evaluated by a single switch loop -- one indirect call per
// *element*, not per AST node, which is as close to the paper's
// "macro-generated Scala loop body" as a library-level C++ stand-in gets.
//
// If-then-else evaluates both branches and selects (kSelect). Both
// branches are pure arithmetic in the supported fragment, so the
// discarded branch has no observable effect and the selected value is
// bit-identical to evaluating only the taken branch.
#ifndef SAC_EXEC_SCALAR_PROGRAM_H_
#define SAC_EXEC_SCALAR_PROGRAM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/comp/ast.h"

namespace sac::exec {

class ScalarProgram {
 public:
  enum class Op : uint8_t {
    kConst,  // push imm
    kArg,    // push args[slot]
    kAdd, kSub, kMul, kDiv, kMod,         // binary arithmetic
    kNeg, kAbs, kSqrt, kExp, kLog,        // unary
    kPow, kMin, kMax,                     // binary calls
    kEq, kNe, kLt, kLe, kGt, kGe,         // comparisons -> 0.0 / 1.0
    kAnd, kOr,                            // logical over 0/1 operands
    kNot,                                 // logical negation
    kSelect,  // pop f, t, c; push c != 0 ? t : f
  };

  struct Instr {
    Op op;
    int32_t slot = 0;   // kArg
    double imm = 0.0;   // kConst
  };

  /// Deepest operand stack Eval keeps inline. Programs that need more
  /// still evaluate correctly, on a stack allocated per call.
  static constexpr int kMaxStack = 64;

  /// Compiles the fragment CompileScalarFn accepts (plus boolean
  /// subexpressions inside if-conditions). PlanError on anything outside
  /// the fragment; never fails on depth.
  static Result<ScalarProgram> Compile(
      const comp::ExprPtr& e, const std::vector<std::string>& args,
      const std::unordered_map<std::string, double>& consts);

  double Eval(const double* args) const;

  size_t size() const { return code_.size(); }
  const std::vector<Instr>& code() const { return code_; }
  /// Deepest operand stack the code needs, recorded at compile time.
  int max_stack() const { return max_stack_; }

 private:
  std::vector<Instr> code_;
  int max_stack_ = 0;
};

}  // namespace sac::exec

#endif  // SAC_EXEC_SCALAR_PROGRAM_H_
