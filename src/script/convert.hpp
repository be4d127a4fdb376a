// Conversions between JSON documents and vpscript values.
//
// Messages arriving at a module (net::Message payloads) are JSON; the
// runtime converts them to script values before invoking
// event_received, and converts call_module/call_service arguments back
// to JSON on the way out.
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

}  // namespace vp::script
