// vpscript constant folder: parse → **fold** → compile.
//
// Runs once per distinct source (ProgramCache compiles each source
// once), between the parser and the bytecode compiler, and rewrites
// constant subexpressions in place: `2 * 3 + 1`, `"a" + "b"`,
// `!false`, `-1`, conditionals and `&&`/`||` with a literal left side.
// Folding goes through EvalBinaryOp (value.cpp), whose semantics match
// the VM's opcodes, so a folded program computes exactly what the
// unfolded one would. Nothing else in the tree changes; the compiler
// derives scopes, slots and interned names itself.
#pragma once

#include "script/ast.hpp"

namespace vp::script {

/// Fold `program` in place. Meant to be called exactly once, right
/// after parsing.
void ResolveProgram(Program& program);

}  // namespace vp::script
