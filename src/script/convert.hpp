// Conversions between JSON documents and vpscript values.
//
// Messages arriving at a module (net::Message payloads) are JSON. The
// VM converts between its own values and JSON directly (Vm::ImportJson
// / ExportJson); these are the same conversions for boxed values, the
// host API type.
#pragma once

#include "common/error.hpp"
#include "json/value.hpp"
#include "script/value.hpp"

namespace vp::script {

/// JSON → script (total).
Value JsonToScript(const json::Value& v);

/// Script → JSON. Functions, values that contain themselves and values
/// nested deeper than json::kMaxDepth are rejected (kScriptError): they
/// cannot travel over the wire.
Result<json::Value> ScriptToJson(const Value& v);

/// ScriptToJson's errors, shared with Vm::ExportJson so that both
/// report the same text.
Error JsonFunctionError();
Error JsonCycleError();
Error JsonDepthError();

/// A host function value for a JsonHostFunction. VM calls reach `fn`
/// with no boxed value in between; boxed callers (Context::Call on the
/// global, a host function passing it on) go through ScriptToJson for
/// each argument and JsonToScript for the result.
Value MakeJsonHostFunction(std::string name, JsonHostFunction fn);

}  // namespace vp::script
