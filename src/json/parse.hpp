// JSON parser (strict RFC-8259 plus two conveniences used by our
// configuration files: `//` line comments and trailing commas).
#pragma once

#include <string_view>

#include "common/error.hpp"
#include "json/value.hpp"

namespace vp::json {

/// Arrays and objects nest at most this deep. The parser recurses once
/// per level, so the limit bounds its stack use on hostile input.
inline constexpr int kMaxDepth = 512;

/// Parse a complete JSON document. Errors carry line/column context;
/// nesting deeper than kMaxDepth is one.
Result<Value> Parse(std::string_view text);

}  // namespace vp::json
