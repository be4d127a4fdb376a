// vpscript standard library (stdlib.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "script/value.hpp"

namespace vp::script {

/// Property read on a string: `length` and the string methods, bound to
/// the receiver by value. Undefined for any other name.
Value StringProperty(const std::string& s, const std::string& name);

/// The standard-library globals (console, Math, JSON, Object, Array,
/// String/Number helpers) in definition order. `seed` drives
/// Math.random determinism.
std::vector<std::pair<std::string, Value>> StdlibGlobals(uint64_t seed);

}  // namespace vp::script
