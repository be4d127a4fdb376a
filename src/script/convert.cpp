#include "script/convert.hpp"

#include <algorithm>
#include <vector>

#include "common/strings.hpp"
#include "json/parse.hpp"

namespace vp::script {

Value JsonToScript(const json::Value& v) {
  switch (v.type()) {
    case json::Type::kNull: return Value(nullptr);
    case json::Type::kBool: return Value(v.AsBool());
    case json::Type::kNumber: return Value(v.AsDouble());
    case json::Type::kString: return Value(v.AsString());
    case json::Type::kArray: {
      auto arr = std::make_shared<ScriptArray>();
      arr->reserve(v.AsArray().size());
      for (const auto& item : v.AsArray()) arr->push_back(JsonToScript(item));
      return Value(std::move(arr));
    }
    case json::Type::kObject: {
      auto obj = std::make_shared<ScriptObject>();
      for (const auto& [k, item] : v.AsObject()) {
        obj->Set(k, JsonToScript(item));
      }
      return Value(std::move(obj));
    }
  }
  return Value(nullptr);
}

Error JsonFunctionError() {
  return ScriptError("cannot serialize a function to JSON");
}

Error JsonCycleError() {
  return ScriptError("cannot serialize a cyclic value to JSON");
}

Error JsonDepthError() {
  return ScriptError(Format("cannot serialize a value nested deeper than %d "
                            "levels to JSON",
                            json::kMaxDepth));
}

namespace {

/// `open` holds the containers being converted, outermost first.
Result<json::Value> ToJson(const Value& v, std::vector<const void*>& open) {
  switch (v.type()) {
    case ValueType::kUndefined:
    case ValueType::kNull:
      return json::Value(nullptr);
    case ValueType::kBool:
      return json::Value(v.AsBool());
    case ValueType::kNumber:
      return json::Value(v.AsNumber());
    case ValueType::kString:
      return json::Value(v.AsString());
    case ValueType::kArray:
    case ValueType::kObject:
      break;
    case ValueType::kHostFunction:
      return JsonFunctionError();
  }
  const void* identity =
      v.is_array() ? static_cast<const void*>(v.AsArray().get())
                   : static_cast<const void*>(v.AsObject().get());
  if (std::find(open.begin(), open.end(), identity) != open.end()) {
    return JsonCycleError();
  }
  if (open.size() == static_cast<size_t>(json::kMaxDepth)) {
    return JsonDepthError();
  }
  open.push_back(identity);
  json::Value out;
  if (v.is_array()) {
    json::Value::Array arr;
    arr.reserve(v.AsArray()->size());
    for (const Value& item : *v.AsArray()) {
      auto j = ToJson(item, open);
      if (!j.ok()) return j;
      arr.push_back(std::move(*j));
    }
    out = json::Value(std::move(arr));
  } else {
    json::Value::Object obj;
    for (const auto& entry : v.AsObject()->items()) {
      auto j = ToJson(entry.value, open);
      if (!j.ok()) return j;
      obj[entry.key] = std::move(*j);
    }
    out = json::Value(std::move(obj));
  }
  open.pop_back();
  return out;
}

}  // namespace

Result<json::Value> ScriptToJson(const Value& v) {
  std::vector<const void*> open;
  return ToJson(v, open);
}

Value MakeJsonHostFunction(std::string name, JsonHostFunction fn) {
  auto host = std::make_shared<HostFunctionValue>();
  host->name = std::move(name);
  host->fn = [fn](std::vector<Value>& args,
                  Interpreter& interp) -> Result<Value> {
    std::vector<JsonArg> json_args;
    json_args.reserve(args.size());
    for (const Value& a : args) {
      json_args.push_back(JsonArg{a.type(), ScriptToJson(a)});
    }
    auto r = fn(json_args, interp);
    if (!r.ok()) return r.error();
    return r->has_value() ? JsonToScript(**r) : Value::Undefined();
  };
  host->json_fn = std::move(fn);
  return Value(std::move(host));
}

}  // namespace vp::script
