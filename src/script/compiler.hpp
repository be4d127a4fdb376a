// vpscript bytecode compiler.
//
// Single-pass AST → bytecode translation in the clox mold: each
// function compiles with its own scope tracker (stack-slot locals,
// lexical upvalue resolution), nested functions compile inline into
// child FunctionProtos adopted by the Vm.
//
// The compiler derives scope layout itself from the folded AST (every
// local lives in a stack slot; captured ones are closed into upvalues
// when their scope exits). Semantics worth knowing:
//  * `var` is block-scoped; a declaration executes at its statement
//    (reads earlier in the block resolve outward), so block entry
//    reserves slots that stay invisible until the declaration runs;
//  * function declarations hoist per block;
//  * compound assignment / ++ / -- evaluate their target expression
//    twice (read then write);
//  * `const` violations are runtime errors (dead branches may contain
//    them) — the compiler emits kRuntimeError instead of failing.
//
// Size limits of the bytecode format are compile errors, and
// Context::Load returns them as load errors (kResourceExhausted,
// message "script compile: <what>"): "too many constants", "too many
// locals", "too many upvalues", "too many globals", "too many call
// arguments", "array literal too large", "object literal too large",
// "jump too long", "loop body too long".
#pragma once

#include "common/error.hpp"
#include "script/ast.hpp"

namespace vp::script {

class Vm;
struct FunctionProto;

/// Compile `program` into `vm` (protos + global slots). Returns the
/// top-level proto to pass to Vm::RunTopLevel.
Result<const FunctionProto*> CompileProgram(const Program& program, Vm& vm);

}  // namespace vp::script
