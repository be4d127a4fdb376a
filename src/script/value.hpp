// vpscript runtime values.
//
// The boxed Value is the host API type: host functions take and return
// it, and Context::Call / GetGlobal hand it to the runtime. Semantics
// are JavaScript-like: numbers are doubles, objects and arrays are
// reference types (shared). Functions are host functions and script
// closures that escaped the VM (vm.hpp wraps them). The VM itself runs
// on NaN-boxed values and converts at the boundary.
//
// Host functions whose data is JSON anyway — the paper's Table-1 API
// (call_service / call_module / …) and JSON.* — are JsonHostFunctions
// instead: the VM exports their arguments straight to json::Value and
// imports their result straight back, with no boxed Value in between.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "json/value.hpp"
#include "script/intern.hpp"

namespace vp::script {

class Value;
class Interpreter;
class ScriptObject;
enum class OpCode : uint8_t;  // ast.hpp

using ScriptArray = std::vector<Value>;

/// A C++ function exposed to scripts.
using HostFunction =
    std::function<Result<Value>(std::vector<Value>& args, Interpreter& interp)>;

/// What host functions get from the engine besides their arguments:
/// the context's console.log sink. (The name predates the bytecode VM,
/// which is the only engine; HostFunction signatures spell it.)
class Interpreter {
 public:
  Interpreter();

  /// Where console.log output goes (default: VP_INFO log).
  void set_print_handler(std::function<void(const std::string&)> handler) {
    print_ = std::move(handler);
  }
  void Print(const std::string& line);

 private:
  std::function<void(const std::string&)> print_;
};

enum class ValueType {
  kUndefined, kNull, kBool, kNumber, kString, kObject, kArray,
  kHostFunction,
};

/// One argument of a JsonHostFunction: its script type, and its JSON
/// form or the error ScriptToJson reports for it (a function, a value
/// that contains itself, nesting past json::kMaxDepth). Every argument
/// is converted before the call; a function reports a conversion error
/// only if it reads that argument's `json`.
struct JsonArg {
  ValueType type;
  Result<json::Value> json;
};

/// What a JsonHostFunction returns to the script: a JSON value, or
/// std::nullopt for undefined.
using JsonResult = Result<std::optional<json::Value>>;

/// A host function on JSON data.
using JsonHostFunction =
    std::function<JsonResult(std::vector<JsonArg>& args, Interpreter& interp)>;

struct HostFunctionValue {
  std::string name;
  HostFunction fn;
  /// Set for a JSON host function (MakeJsonHostFunction, convert.hpp).
  /// The VM calls it directly; `fn` reaches the same function through
  /// ScriptToJson / JsonToScript for callers holding boxed values.
  JsonHostFunction json_fn;
};

const char* ValueTypeName(ValueType t);

/// Number formatting shared by the boxed and NaN-boxed values ("NaN",
/// "Infinity", integers up to 1e15 without exponent, %g otherwise) —
/// display output must not depend on which side of the host boundary
/// a value is on.
std::string NumberToString(double d);

class Value {
 public:
  Value() : data_(std::monostate{}) {}  // undefined
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::shared_ptr<ScriptObject> o) : data_(std::move(o)) {}
  Value(std::shared_ptr<ScriptArray> a) : data_(std::move(a)) {}
  Value(std::shared_ptr<HostFunctionValue> h) : data_(std::move(h)) {}

  static Value Undefined() { return Value(); }
  static Value MakeObject() {
    return Value(std::make_shared<ScriptObject>());
  }
  static Value MakeArray() { return Value(std::make_shared<ScriptArray>()); }
  static Value MakeHostFunction(std::string name, HostFunction fn);

  /// The variant's alternatives are declared in ValueType order, so
  /// the tag maps straight through — keep both lists in sync.
  ValueType type() const { return static_cast<ValueType>(data_.index()); }
  bool is_undefined() const { return type() == ValueType::kUndefined; }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_nullish() const { return is_undefined() || is_null(); }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_number() const { return type() == ValueType::kNumber; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_object() const { return type() == ValueType::kObject; }
  bool is_array() const { return type() == ValueType::kArray; }
  bool is_function() const { return type() == ValueType::kHostFunction; }

  bool AsBool() const { return std::get<bool>(data_); }
  double AsNumber() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const std::shared_ptr<ScriptObject>& AsObject() const {
    return std::get<std::shared_ptr<ScriptObject>>(data_);
  }
  const std::shared_ptr<ScriptArray>& AsArray() const {
    return std::get<std::shared_ptr<ScriptArray>>(data_);
  }
  const std::shared_ptr<HostFunctionValue>& AsHostFunction() const {
    return std::get<std::shared_ptr<HostFunctionValue>>(data_);
  }

  /// JS truthiness. Bool/number inline (loop conditions); the
  /// remaining types go out of line.
  bool Truthy() const {
    if (is_bool()) return AsBool();
    if (is_number()) {
      const double d = AsNumber();
      return d != 0.0 && d == d;  // NaN is falsy
    }
    return TruthySlow();
  }

  /// Abstract ToString (used by `+` concatenation and console.log).
  std::string ToDisplayString() const;

  /// ToNumber coercion: true→1, "12"→12, null→0, undefined→NaN, …
  double ToNumber() const {
    if (is_number()) return AsNumber();
    return ToNumberSlow();
  }

  /// Strict equality (===). Objects/arrays compare by identity.
  bool StrictEquals(const Value& o) const;

  /// Loose equality (==): strict, plus null == undefined and
  /// number/string cross-coercion.
  bool LooseEquals(const Value& o) const;

 private:
  bool TruthySlow() const;
  double ToNumberSlow() const;

  std::variant<std::monostate, std::nullptr_t, bool, double, std::string,
               std::shared_ptr<ScriptObject>, std::shared_ptr<ScriptArray>,
               std::shared_ptr<HostFunctionValue>>
      data_;
};

/// Insertion-ordered property map (for-in iterates in insertion order).
/// Properties exported from the VM keep the interned key id their
/// compiled member access / object literal gave them, and importing
/// carries it back, so those keys compare as integers; dynamically
/// computed keys (`obj[k] = v`, JSON interop) stay plain strings and
/// are matched by string comparison.
class ScriptObject {
 public:
  struct Entry {
    uint32_t key_id = kNoNameId;
    std::string key;
    Value value;
    Entry(uint32_t id, std::string k, Value v);
  };

  Value* Find(const std::string& key);
  const Value* Find(const std::string& key) const;
  /// Fast path for pre-interned keys. `key` is the spelling of
  /// `key_id`, used to match entries stored without an id.
  Value* FindInterned(uint32_t key_id, const std::string& key);
  void Set(const std::string& key, Value v);
  void SetInterned(uint32_t key_id, const std::string& key, Value v);
  bool Erase(const std::string& key);
  void Clear() { items_.clear(); }
  size_t size() const { return items_.size(); }
  const std::vector<Entry>& items() const { return items_; }

 private:
  std::vector<Entry> items_;
};

/// Binary operator semantics on boxed values, for the resolver's
/// constant folder. Must agree bit for bit with the VM's arithmetic and
/// comparison opcodes (vm.cpp), so a folded expression yields what the
/// unfolded one would at run time. Errors on non-binary codes.
Result<Value> EvalBinaryOp(OpCode op, const Value& a, const Value& b);

}  // namespace vp::script
