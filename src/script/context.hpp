// Script contexts.
//
// A Context is the unit of isolation: one per module, mirroring the
// paper's "separate Duktape contexts … spawned inside a single JVM to
// provide isolation without compromising performance" (§3). Each
// context has its own bytecode VM (heap, globals, step budget) and
// stdlib instance; host functions (the Table-1 API) are registered by
// the module runtime, before or after the module source is loaded.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "json/value.hpp"
#include "script/value.hpp"
#include "script/vm.hpp"

namespace vp::script {

class CachedProgram;

struct ContextOptions {
  InterpreterLimits limits;
  /// Seed for this context's Math.random.
  uint64_t random_seed = 1234;

  bool operator==(const ContextOptions&) const = default;
};

class Context {
 public:
  explicit Context(ContextOptions options = {});
  // The VM points at interp_: a Context stays where it was built.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Expose a host function as a global.
  void RegisterHostFunction(const std::string& name, HostFunction fn);

  /// Expose a host function on JSON data as a global, e.g.
  /// call_service: script arguments reach it exported to JSON and its
  /// result is imported back, without a boxed Value in between.
  void RegisterJsonHostFunction(const std::string& name, JsonHostFunction fn);

  /// Define an arbitrary global value (configuration constants…).
  void DefineGlobal(const std::string& name, Value v);

  /// Compile (through the process-wide ProgramCache) and run module
  /// source in a fresh VM: top-level code runs immediately, function
  /// declarations become callable afterwards. A reload replaces the
  /// previous program and its state. Parse errors, compiler size
  /// limits (compiler.hpp) and top-level runtime errors are returned.
  Status Load(const std::string& source);

  bool HasFunction(const std::string& name) const;

  /// Call a global function by name. Resets the step budget first, so
  /// each event gets the full budget (FaaS-style per-invocation cap).
  /// A result that contains itself or is nested deeper than
  /// json::kMaxDepth cannot leave the VM: the call fails (kScriptError).
  Result<Value> Call(const std::string& name, std::vector<Value> args);

  /// Call with one argument given as JSON — a message payload for
  /// event_received — imported into the VM directly.
  Result<Value> CallJson(const std::string& name, const json::Value& arg);

  /// Read a global (undefined if absent, or if it cannot leave the VM:
  /// a value that contains itself or is nested too deep).
  Value GetGlobal(const std::string& name) const;

  /// Snapshot the module-defined, JSON-serializable globals — the
  /// variables the module source created on top of the baseline
  /// (stdlib + host functions and globals defined through this class
  /// are excluded; functions and other non-serializable values are
  /// skipped). Restoring a snapshot into a freshly-Loaded context of
  /// the same source resumes the module's state — the basis of live
  /// module migration between devices.
  json::Value SnapshotState() const;

  /// Overwrite globals from a snapshot produced by SnapshotState().
  /// kInvalidArgument for a non-object, a key naming a baseline
  /// global or more globals than the VM can hold; kFailedPrecondition
  /// before a program is loaded. A rejected snapshot changes nothing.
  Status RestoreState(const json::Value& snapshot);

  /// The console.log sink handed to host functions.
  Interpreter& interpreter() { return interp_; }

  /// The VM running the loaded program (nullptr before Load). Exposed
  /// for GC instrumentation in tests and benchmarks.
  Vm* vm() { return vm_.get(); }

  /// Script heap bytes currently resident.
  size_t MemoryBytes() const { return vm_ ? vm_->bytes_allocated() : 0; }

 private:
  ContextOptions options_;
  Interpreter interp_;
  /// stdlib + host functions + DefineGlobal values, in definition
  /// order; imported into each Load's VM as baseline globals.
  std::vector<std::pair<std::string, Value>> baseline_;
  /// Cache entry backing vm_'s bytecode, held so the linked program
  /// outlives cache eviction.
  std::shared_ptr<const CachedProgram> program_;
  std::unique_ptr<Vm> vm_;
};

}  // namespace vp::script
