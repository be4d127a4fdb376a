#include "script/context.hpp"

#include "script/convert.hpp"
#include "script/program_cache.hpp"
#include "script/stdlib.hpp"

namespace vp::script {

Context::Context(ContextOptions options)
    : options_(options), baseline_(StdlibGlobals(options.random_seed)) {}

void Context::RegisterHostFunction(const std::string& name, HostFunction fn) {
  DefineGlobal(name, Value::MakeHostFunction(name, std::move(fn)));
}

void Context::RegisterJsonHostFunction(const std::string& name,
                                       JsonHostFunction fn) {
  DefineGlobal(name, MakeJsonHostFunction(name, std::move(fn)));
}

void Context::DefineGlobal(const std::string& name, Value v) {
  // After Load the name also goes straight into the running VM; the
  // baseline keeps it for any later reload. Importing fails only when
  // the VM's slot table is full, and then the global stays undefined.
  if (vm_ != nullptr) (void)vm_->ImportGlobal(name, v, /*baseline=*/true);
  for (auto& [existing, value] : baseline_) {
    if (existing == name) {
      value = std::move(v);
      return;
    }
  }
  baseline_.emplace_back(name, std::move(v));
}

Status Context::Load(const std::string& source) {
  // A reload replaces the whole program: nothing of the previous one
  // may keep answering Call/GetGlobal/SnapshotState, even if this load
  // fails.
  vm_.reset();
  program_.reset();

  auto cached = ProgramCache::Global().Acquire(source);
  if (!cached.ok()) return Status(cached.error());
  auto vm = std::make_unique<Vm>(options_.limits, &interp_);
  const FunctionProto* top = (*cached)->LinkInto(*vm);
  // Baselines after the link: program-referenced names already own the
  // low slots (the bytecode's operands); stdlib + host imports fill
  // them or append.
  for (const auto& [name, value] : baseline_) {
    VP_RETURN_IF_ERROR(vm->ImportGlobal(name, value, /*baseline=*/true));
  }
  program_ = *cached;
  vm_ = std::move(vm);
  return vm_->RunTopLevel(top);
}

json::Value Context::SnapshotState() const {
  return vm_ != nullptr ? vm_->SnapshotState() : json::Value::MakeObject();
}

Status Context::RestoreState(const json::Value& snapshot) {
  if (!snapshot.is_object()) {
    return Status(StatusCode::kInvalidArgument,
                  "state snapshot must be an object");
  }
  if (vm_ == nullptr) {
    return Status(StatusCode::kFailedPrecondition,
                  "state restore before a program is loaded");
  }
  return vm_->RestoreState(snapshot);
}

bool Context::HasFunction(const std::string& name) const {
  return vm_ != nullptr && vm_->GlobalIsFunction(name);
}

Result<Value> Context::Call(const std::string& name, std::vector<Value> args) {
  if (vm_ == nullptr) return NotFound("no function '" + name + "' in module");
  vm_->ResetBudget();
  return vm_->CallGlobal(name, std::move(args));
}

Result<Value> Context::CallJson(const std::string& name,
                               const json::Value& arg) {
  if (vm_ == nullptr) return NotFound("no function '" + name + "' in module");
  vm_->ResetBudget();
  return vm_->CallGlobalJson(name, arg);
}

Value Context::GetGlobal(const std::string& name) const {
  return vm_ != nullptr ? vm_->GetGlobalBoxed(name) : Value::Undefined();
}

}  // namespace vp::script
