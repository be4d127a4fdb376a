#include "json/write.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>

namespace vp::json {
namespace {

void WriteNumber(std::string& out, double d) {
  // JSON has no NaN or Infinity; write null, as JSON.stringify does.
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // Integers print without a fractional part; everything else uses
  // shortest-ish %.17g for round-tripping.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void WriteImpl(const Value& v, int indent, int depth, std::string& out) {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += v.AsBool() ? "true" : "false";
      break;
    case Type::kNumber:
      WriteNumber(out, v.AsDouble());
      break;
    case Type::kString:
      out += '"';
      out += EscapeString(v.AsString());
      out += '"';
      break;
    case Type::kArray: {
      const auto& arr = v.AsArray();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        WriteImpl(arr[i], indent, depth + 1, out);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& obj = v.AsObject();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, val] : obj) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        out += '"';
        out += EscapeString(k);
        out += "\":";
        if (pretty) out += ' ';
        WriteImpl(val, indent, depth + 1, out);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {
// Homes on different simulator shards serialize concurrently.
std::atomic<uint64_t> g_write_calls{0};
}  // namespace

uint64_t WriteCallCountForTest() {
  return g_write_calls.load(std::memory_order_relaxed);
}

std::string Write(const Value& v, int indent) {
  g_write_calls.fetch_add(1, std::memory_order_relaxed);
  std::string out;
  WriteImpl(v, indent, 0, out);
  if (indent >= 0) out += '\n';
  return out;
}

}  // namespace vp::json
