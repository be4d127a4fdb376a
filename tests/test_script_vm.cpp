// Bytecode-VM tests. The VM is vpscript's only engine; the tree-walking
// interpreter it replaced used to be the reference it was diffed
// against. That interpreter's outputs, status codes, error messages,
// snapshots and seeded random streams for the programs below were
// recorded as literals, so the behaviour it pinned is still checked.
// Language semantics, the standard library, the guards, the Context
// API and JSON interop are covered by test_script_interp.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/fitness.hpp"
#include "core/orchestrator.hpp"
#include "json/parse.hpp"
#include "json/write.hpp"
#include "script/context.hpp"
#include "script/convert.hpp"
#include "sim/cluster.hpp"

namespace vp::script {
namespace {

/// Evaluate a script and return the value of global `result`.
Result<Value> Eval(const std::string& body, ContextOptions options = {}) {
  Context context(options);
  Status loaded = context.Load(body);
  if (!loaded.ok()) return loaded.error();
  return context.GetGlobal("result");
}

/// Display form of global `result`, or the load error.
std::string EvalDisplay(const std::string& body) {
  auto v = Eval(body);
  if (!v.ok()) return "load error: " + v.error().ToString();
  return v->ToDisplayString();
}

TEST(VmEngine, LoadRunsOnTheVm) {
  Context context;
  EXPECT_EQ(context.vm(), nullptr);
  ASSERT_TRUE(context
                  .Load(R"(
    var xs = [];
    function make(n) { return function () { return n; }; }
    for (var i = 0; i < 3; i++) xs.push(make(i));
    function event_received(e) { return xs[1]() + e.v; }
  )")
                  .ok());
  ASSERT_NE(context.vm(), nullptr);
  EXPECT_GT(context.MemoryBytes(), 0u);
}

// ------------------------------------------------- result equivalence

struct Expected {
  std::string program;
  std::string display;
};

TEST(VmEquivalence, SameResultsAsInterpreter) {
  const std::vector<Expected> cases = {
      // Shadowing across nested blocks.
      {R"(var x = 1; { var x = 2; { var x = 3; } } var result = x;)",
       "1"},
      // Closure over a loop variable (shared binding).
      {R"(var f = []; for (var i = 0; i < 3; i++) f.push(function () { return i; });
         var result = f[0]() + f[2]();)",
       "6"},
      // Per-iteration body locals captured independently.
      {R"(var f = []; for (var i = 0; i < 3; i++) { var k = i * 10; f.push(function () { return k; }); }
         var result = f[0]() + f[1]() + f[2]();)",
       "30"},
      // Catch binding shadows a global of the same name.
      {R"(var e = 7; try { throw 1; } catch (e) { e = e + 1; } var result = e;)",
       "7"},
      // Hoisted self-reference + recursion.
      {R"(var result = fact(5); function fact(n) { return n < 2 ? 1 : n * fact(n - 1); })",
       "120"},
      // Named function expression self-reference.
      {R"(var f = function g(n) { return n < 2 ? 1 : n * g(n - 1); }; var result = f(5);)",
       "120"},
      // Compound assignment / update operators on members and slots.
      {R"(var o = { n: 1 }; var t = 0; for (var i = 0; i < 4; i++) { o.n *= 2; t += o.n; }
         var result = t * 100 + o.n;)",
       "3016"},
      // Switch with fall-through and block-scoped cases.
      {R"(var out = ""; var k = 1;
         switch (k) { case 0: out += "a"; case 1: out += "b"; case 2: out += "c"; break;
                      default: out += "d"; }
         var result = out;)",
       "bc"},
      // String/number coercion through binary fast paths.
      {R"(var result = "3" * "4" + ("1" + 2) + (0 / 0 == 0 / 0 ? "eq" : "ne");)",
       "1212ne"},
      // Array methods, callbacks re-entering the engine.
      {R"(var a = [5, 3, 8, 1]; var b = a.map(function (x) { return x * 2; })
            .filter(function (x) { return x > 4; });
         b.sort(function (x, y) { return x - y; });
         var result = b.join("-") + ":" + a.length;)",
       "6-10-16:4"},
      // reduce with and without seed, indexOf/includes/slice/concat.
      {R"(var a = [1, 2, 3, 4];
         var s1 = a.reduce(function (acc, x) { return acc + x; });
         var s2 = a.reduce(function (acc, x) { return acc + x; }, 100);
         var result = s1 + "," + s2 + "," + a.indexOf(3) + "," + a.includes(9)
                    + "," + a.slice(1, -1).join("") + "," + a.concat([9, [8]]).length;)",
       "10,110,2,false,23,6"},
      // for-in over objects and arrays, key snapshot semantics.
      {R"(var o = { a: 1, b: 2, c: 3 }; var keys = ""; var sum = 0;
         for (var k in o) { keys += k; sum += o[k]; }
         var arr = [10, 20]; for (var k in arr) keys += k;
         var result = keys + ":" + sum;)",
       "abc01:6"},
      // try/catch: catch object shape, nested handlers, rethrow.
      {R"(var log = "";
         try {
           try { missing(); } catch (e) { log += e.code + "|"; throw "boom"; }
         } catch (e) { log += e.message; }
         var result = log;)",
       "SCRIPT_ERROR|script:3: uncaught: boom"},
      // while / do-while / break / continue.
      {R"(var s = 0; var i = 0;
         while (true) { i++; if (i % 2 == 0) continue; if (i > 9) break; s += i; }
         var j = 0; do { j++; } while (j < 3);
         var result = s * 10 + j;)",
       "253"},
      // typeof, logical operators returning operands, ternary chains.
      {R"(var result = typeof [] + "," + typeof null + "," + typeof (function () {})
                    + "," + (0 || "x") + "," + (1 && "y") + "," + (undefined ? 1 : null ? 2 : 3);)",
       "object,object,function,x,y,3"},
      // String methods through the VM's boxed bridge.
      {R"(var s = "  Video,Pipe  ";
         var result = s.trim().split(",").map(function (w) { return w.toUpperCase(); }).join("+")
                    + ":" + s.trim().length + ":" + "ab".repeat(3);)",
       "VIDEO+PIPE:10:ababab"},
      // Object/array display forms, nested structures.
      {R"(var result = { a: [1, "x", { b: null }], c: undefined };)",
       "{a: [1, \"x\", {b: null}], c: undefined}"},
      // JSON round trip + Object.keys + Math.
      {R"(var o = JSON.parse("{\"a\":[1,2],\"b\":{\"c\":3}}");
         o.b.d = Math.max(4, 2) + Math.floor(2.9);
         var result = JSON.stringify(o) + ":" + Object.keys(o).join("");)",
       "{\"a\":[1,2],\"b\":{\"c\":3,\"d\":6}}:ab"},
      // Deleting / overwriting keys via dynamic index writes.
      {R"(var o = {}; o["k" + 1] = 10; o.k1 += 5; var result = o.k1;)",
       "15"},
      // Increment/decrement on members, prefix and postfix.
      {R"(var o = { n: 5 }; var a = o.n++; var b = ++o.n; var result = a * 100 + b * 10 + o.n;)",
       "577"},
      // NaN-adjacent behaviours through the NaN-boxed representation.
      {R"(var n = 0 / 0;
         var result = (n == n) + ":" + (n != n) + ":" + NumberHole(n);
         function NumberHole(x) { return typeof x + ":" + (x ? "t" : "f"); })",
       "false:true:number:f"},
      // Negative zero, large integers, float formatting.
      {R"(var result = -0 + ":" + 1e15 + ":" + 0.1 + 0.2 + ":" + 123456789012345;)",
       "0:1e+15:0.10.2:123456789012345"},
      // Bound array method detached from its receiver.
      {R"(var a = [1]; var push = a.push; push(2, 3); var result = a.join("-");)",
       "1-2-3"},
  };
  for (const Expected& c : cases) {
    EXPECT_EQ(EvalDisplay(c.program), c.display) << c.program;
  }
}

// -------------------------------------------------- error equivalence

struct ExpectedError {
  std::string program;
  StatusCode code;
  std::string message;
};

TEST(VmEquivalence, ErrorsMatchInterpreterByteForByte) {
  const std::vector<ExpectedError> cases = {
      {"var result = missing;", StatusCode::kScriptError,
       "script:1: 'missing' is not defined"},
      {"var result = missing();", StatusCode::kScriptError,
       "script:1: 'missing' is not defined"},
      {"var o = {}; var result = o.a.b;", StatusCode::kScriptError,
       "script:1: cannot read property 'b' of undefined"},
      {"var result = null.x;", StatusCode::kScriptError,
       "script:1: cannot read property 'x' of null"},
      {"var result = (5)();", StatusCode::kScriptError,
       "script:1: attempt to call a number"},
      {"var a = [1]; var result = a[0 / 0];", StatusCode::kScriptError,
       "script:1: array index is NaN"},
      {"var a = [1]; a[-1] = 2; var result = 1;", StatusCode::kScriptError,
       "script:1: bad array index"},
      {"var result = 5[0];", StatusCode::kScriptError,
       "script:1: cannot index a number"},
      {"var n = 3; n.x = 1; var result = 1;", StatusCode::kScriptError,
       "script:1: cannot set property 'x' on a number"},
      {"const c = 1; c = 2; var result = c;", StatusCode::kScriptError,
       "script:1: assignment to const 'c'"},
      {"var result = undefined1 + undefined2;", StatusCode::kScriptError,
       "script:1: 'undefined1' is not defined"},
      {"for (var k in 5) {} var result = 1;", StatusCode::kScriptError,
       "script:1: for-in over a non-object"},
      {"function f() { return f(); } var result = f();",
       StatusCode::kScriptError,
       "script:1: call depth limit (128) exceeded"},
      {"throw { code: 9 }; var result = 1;", StatusCode::kScriptError,
       "script:1: uncaught: {code: 9}"},
      {"throw \"plain\"; var result = 1;", StatusCode::kScriptError,
       "script:1: uncaught: plain"},
  };
  for (const ExpectedError& c : cases) {
    Context context;
    const Status s = context.Load(c.program);
    EXPECT_FALSE(s.ok()) << c.program;
    EXPECT_EQ(s.code(), c.code) << c.program;
    EXPECT_EQ(s.message(), c.message) << c.program;
  }
}

TEST(VmEquivalence, CallErrorsMatch) {
  const std::string module = R"(
    function boom() { return nope(); }
    function deep(n) { return n == 0 ? worse() : deep(n - 1); }
  )";
  const std::vector<ExpectedError> cases = {  // program = function called
      {"boom", StatusCode::kScriptError, "script:2: 'nope' is not defined"},
      {"deep", StatusCode::kScriptError, "script:3: 'worse' is not defined"},
      {"absent", StatusCode::kNotFound, "no function 'absent' in module"},
  };
  for (const ExpectedError& c : cases) {
    Context context;
    ASSERT_TRUE(context.Load(module).ok());
    auto r = context.Call(c.program, {Value(3.0)});
    ASSERT_FALSE(r.ok()) << c.program;
    EXPECT_EQ(r.error().code(), c.code) << c.program;
    EXPECT_EQ(r.error().message(), c.message) << c.program;
  }
}

TEST(VmEquivalence, BudgetAndDepthLimitsMatch) {
  ContextOptions options;
  options.limits.max_steps = 10'000;
  {
    Context context(options);
    const Status s = context.Load("while (true) {}");
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(s.message(), "script:1: step budget exceeded (10000 steps)");
  }
  {
    Context context(options);
    const Status s = context.Load("function f(n) { return f(n + 1); } f(0);");
    EXPECT_EQ(s.code(), StatusCode::kScriptError);
    EXPECT_EQ(s.message(), "script:1: call depth limit (128) exceeded");
  }
  // The depth limit is catchable — and the budget limit is not.
  EXPECT_EQ(EvalDisplay(R"(
      function f(n) { return f(n + 1); }
      var result = "no";
      try { f(0); } catch (e) { result = "caught"; }
    )"),
            "caught");
}

// ------------------------------------------- host boundary equivalence

TEST(VmEquivalence, HostFunctionsSeeTheSameArguments) {
  {
    Context context;
    std::vector<std::string> seen;
    context.RegisterHostFunction(
        "record", [&seen](std::vector<Value>& args,
                          Interpreter&) -> Result<Value> {
          std::string all;
          for (const Value& v : args) all += v.ToDisplayString() + ";";
          seen.push_back(all);
          return Value(static_cast<double>(args.size()));
        });
    ASSERT_TRUE(context
                    .Load(R"(
      var n = record(1, "two", [3, { four: 4 }], null, undefined);
      function handler(e) { return record(e, e.nested); }
    )")
                    .ok());
    auto e = Value::MakeObject();
    e.AsObject()->Set("nested", Value::MakeArray());
    e.AsObject()->Set("k", Value(7.0));
    ASSERT_TRUE(context.Call("handler", {e}).ok());
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "1;two;[3, {four: 4}];null;undefined;");
    EXPECT_EQ(seen[1], "{nested: [], k: 7};[];");
  }
}

// --------------------------------------- cyclic and deep values at the host

/// A context whose host function `send` serializes its argument the
/// way call_service, call_module and set_timer do.
void LoadWithSend(Context& context, const std::string& program) {
  context.RegisterHostFunction(
      "send", [](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        auto j = ScriptToJson(args.empty() ? Value::Undefined() : args[0]);
        if (!j.ok()) return j.error();
        return Value(json::Write(*j));
      });
  ASSERT_TRUE(context.Load(program).ok());
}

TEST(VmHostBoundary, CyclicValuesFailAsScriptErrors) {
  // Both used to recurse in ScriptToJson until the stack overflowed.
  Context context;
  LoadWithSend(context, R"(
    function object_cycle(e) { var a = {}; a.self = a; return send(a); }
    function array_cycle(e) { var a = []; a.push(a); return send(a); }
    function nested_cycle(e) {
      var a = { list: [1, 2] }; a.list.push({ back: a }); return send(a);
    }
    function shared_not_cyclic(e) {
      var s = { v: 1 }; return send({ x: s, y: [s, s] });
    }
  )");
  for (const char* fn : {"object_cycle", "array_cycle", "nested_cycle"}) {
    auto r = context.Call(fn, {Value(nullptr)});
    ASSERT_FALSE(r.ok()) << fn;
    EXPECT_EQ(r.error().code(), StatusCode::kScriptError) << fn;
    EXPECT_NE(r.error().message().find("cyclic"), std::string::npos)
        << r.error().message();
  }
  // Sharing without a cycle still serializes (each use in full).
  auto shared = context.Call("shared_not_cyclic", {Value(nullptr)});
  ASSERT_TRUE(shared.ok()) << shared.error().ToString();
  EXPECT_EQ(shared->AsString(), R"({"x":{"v":1},"y":[{"v":1},{"v":1}]})");
}

TEST(VmHostBoundary, NestingPastTheJsonLimitFailsAsAScriptError) {
  Context context;
  LoadWithSend(context, R"(
    function nest(n) { var a = 1; for (var i = 0; i < n; i++) a = [a]; return send(a); }
  )");
  EXPECT_TRUE(context.Call("nest", {Value(512.0)}).ok());
  auto deep = context.Call("nest", {Value(513.0)});
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.error().code(), StatusCode::kScriptError);
  EXPECT_NE(deep.error().message().find("deeper than 512"), std::string::npos)
      << deep.error().message();
}

TEST(VmHostBoundary, JsonParseOfADeepStringFailsAsAScriptError) {
  Context context;
  ASSERT_TRUE(context
                  .Load(R"(
    function parse(n) {
      var s = "[";
      while (s.length < n) s = s + s;
      return JSON.parse(s);
    }
  )")
                  .ok());
  auto r = context.Call("parse", {Value(100000.0)});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message().find("nesting deeper than"), std::string::npos)
      << r.error().message();
}

TEST(VmHostBoundary, ScriptToJsonRejectsHostBuiltCyclesAndDepth) {
  auto object = std::make_shared<ScriptObject>();
  object->Set("self", Value(object));
  auto cyclic = ScriptToJson(Value(object));
  ASSERT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.error().code(), StatusCode::kScriptError);
  object->Clear();  // free the cycle
  Value deep(1.0);
  for (int i = 0; i < json::kMaxDepth; ++i) {
    auto wrapper = std::make_shared<ScriptArray>();
    wrapper->push_back(deep);
    deep = Value(std::move(wrapper));
  }
  EXPECT_TRUE(ScriptToJson(deep).ok());
  auto wrapper = std::make_shared<ScriptArray>();
  wrapper->push_back(deep);
  auto too_deep = ScriptToJson(Value(std::move(wrapper)));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.error().code(), StatusCode::kScriptError);
}

TEST(VmHostBoundary, HostileNestingFailsInsteadOfOverflowingTheStack) {
  Context context;
  LoadWithSend(context, R"(
    function nest(n) { var a = 1; for (var i = 0; i < n; i++) a = [a]; return send(a); }
    var deep = 1;
    for (var i = 0; i < 100000; i++) deep = [deep];
    var count = 3;
  )");
  auto r = context.Call("nest", {Value(100000.0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), StatusCode::kScriptError);
  // Too deep to read out or checkpoint, but still the module's state.
  EXPECT_TRUE(context.GetGlobal("deep").is_undefined());
  EXPECT_EQ(json::Write(context.SnapshotState()), R"({"count":3})");
}

TEST(VmHostBoundary, CyclicAndDeepValuesDisplayWithoutRecursingForever) {
  // String conversion in the VM and console.log on the host side used
  // to recurse without bound on both.
  Context context;
  std::vector<std::string> printed;
  context.interpreter().set_print_handler(
      [&printed](const std::string& line) { printed.push_back(line); });
  ASSERT_TRUE(context
                  .Load(R"(
    var a = { n: 1 }; a.self = a;
    var b = [1]; b.push(b);
    function show(e) { console.log(a, b); return "" + a + " " + b; }
    function deep(n) { var x = 1; for (var i = 0; i < n; i++) x = [x]; return "" + x; }
  )")
                  .ok());
  auto shown = context.Call("show", {Value(nullptr)});
  ASSERT_TRUE(shown.ok()) << shown.error().ToString();
  EXPECT_EQ(shown->AsString(), "{n: 1, self: [Circular]} [1, [Circular]]");
  ASSERT_EQ(printed.size(), 1u);
  EXPECT_EQ(printed[0], "{n: 1, self: [Circular]} [1, [Circular]]");
  auto deep = context.Call("deep", {Value(100000.0)});
  ASSERT_TRUE(deep.ok()) << deep.error().ToString();
  EXPECT_EQ(deep->AsString(), std::string(json::kMaxDepth, '[') + "[...]" +
                                  std::string(json::kMaxDepth, ']'));
}

TEST(VmCheckpoint, SnapshotSkipsCyclicGlobals) {
  Context context;
  ASSERT_TRUE(context
                  .Load(R"(
    var a = {}; a.self = a;
    var b = []; b.push(b);
    var c = { list: [a] };
    var kept = { n: 5, list: [1, 2] };
  )")
                  .ok());
  EXPECT_EQ(json::Write(context.SnapshotState()),
            R"({"kept":{"n":5,"list":[1,2]}})");
}

TEST(VmEquivalence, ScriptClosuresEscapeToTheHostAndBack) {
  Context context;
  ASSERT_TRUE(context
                  .Load(R"(
    var count = 0;
    function tick() { count += 1; return count; }
  )")
                  .ok());
  // GetGlobal wraps the VM closure as a callable host value; calling
  // it must mutate the module's state.
  Value tick = context.GetGlobal("tick");
  ASSERT_TRUE(tick.is_function());
  std::vector<Value> no_args;
  auto r1 = tick.AsHostFunction()->fn(no_args, context.interpreter());
  auto r2 = tick.AsHostFunction()->fn(no_args, context.interpreter());
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r2->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(context.GetGlobal("count").AsNumber(), 2.0);
}

// ------------------------------------- direct JSON conversions in the VM

/// A Result<json::Value> as one comparable line: the JSON text or the
/// error.
std::string Show(const Result<json::Value>& j) {
  return j.ok() ? "json " + json::Write(*j) : "error " + j.error().ToString();
}

std::string Show(const Result<Value>& v) {
  return v.ok() ? "value " + v->ToDisplayString()
                : "error " + v.error().ToString();
}

/// Values with and without a JSON form. Each program defines `v`.
const std::vector<std::string>& ExportCorpus() {
  static const std::vector<std::string> corpus = {
      // Nesting and insertion order, literal and dynamic keys.
      R"(var v = { b: 1, a: [1, 2, { c: "x" }], z: null };)",
      R"(var v = {}; v["z"] = 1; v.a = 2; v["m" + 1] = 3; v.z = 4;)",
      // Escaped and non-ASCII strings.
      R"(var v = ["q\"uote", "back\\slash", "nl\n", "tab\t", "é", JSON.parse("\"\\u0001\"")];)",
      // Numbers JSON has no literal for, and the edges of doubles.
      R"(var v = [0 / 0, 1 / 0, -1 / 0, -0, 1e300, 5e-324, 123456789012345678, 0.1];)",
      // undefined in arrays and objects.
      R"(var v = [undefined, 1, { u: undefined, n: null }];)",
      // Shared sub-objects expand at every use.
      R"(var s = { k: [1] }; var v = { a: s, b: [s, s], c: { d: s } };)",
      // Empty containers and scalars.
      R"(var v = [[], {}, [[]], ""];)",
      R"(var v = "plain";)",
      R"(var v = true;)",
      R"(var v = null;)",
      R"(var v;)",
      // Keys without an interned id (JSON.parse) next to ones with.
      R"(var v = JSON.parse("{\"a\":1,\"b\":[true,false,null]}"); v.c = v.b;)",
      // Exactly at the nesting limit.
      R"(var v = 1; for (var i = 0; i < 512; i++) v = [v];)",
      R"(var v = 1; for (var i = 0; i < 512; i++) v = { k: v };)",
      // No JSON form: the first failure in walk order wins.
      R"(var v = { a: 1 }; v.self = v;)",
      R"(var v = [1]; v.push(v);)",
      R"(var v = [function f() {}, 1];)",
      R"(var v = { m: Math.floor };)",
      R"(var v = [[].push];)",
      R"(var c = [1]; c.push(c); var v = [function f() {}, c];)",
      R"(var c = [1]; c.push(c); var v = [c, function f() {}];)",
      // Too deep along the first-visit path, and only along a shared
      // path (every container first reached shallowly).
      R"(var v = 1; for (var i = 0; i < 513; i++) v = [v];)",
      R"(var list = []; var c = {}; for (var i = 0; i < 600; i++) { list.push(c); c = { next: c }; }
         var v = { all: list };)",
  };
  return corpus;
}

TEST(VmJson, ExportMatchesTheBoxedRoute) {
  for (const std::string& program : ExportCorpus()) {
    Context context;
    ASSERT_TRUE(context.Load(program).ok()) << program;
    Vm* vm = context.vm();
    const VpValue v = vm->GlobalValue("v");
    auto boxed = vm->VmToBoxed(v);
    if (!boxed.ok()) {
      // Cyclic or too deep to box: ExportJson fails too.
      EXPECT_FALSE(vm->ExportJson(v).ok()) << program;
      continue;
    }
    EXPECT_EQ(Show(vm->ExportJson(v)), Show(ScriptToJson(*boxed))) << program;
  }
}

TEST(VmJson, JsonHostFunctionsSeeWhatBoxedOnesSerialize) {
  // `send` is a boxed host function serializing its argument with
  // ScriptToJson; `send_json` is the same as a JSON host function. Same
  // text, or the same error, for every value.
  for (const std::string& program : ExportCorpus()) {
    Context context;
    context.RegisterJsonHostFunction(
        "send_json",
        [](std::vector<JsonArg>& args, Interpreter&) -> JsonResult {
          if (!args[0].json.ok()) return args[0].json.error();
          return JsonResult(json::Value(json::Write(*args[0].json)));
        });
    // One line: errors carry the line of the call.
    LoadWithSend(context, program + R"(
      function via_boxed() { return send(v); } function via_json() { return send_json(v); }
    )");
    EXPECT_EQ(Show(context.Call("via_json", {})),
              Show(context.Call("via_boxed", {})))
        << program;
  }
}

/// Structural identity of two VM values: types, number bits, strings,
/// and object entries with their key ids.
bool SameVmValue(VpValue a, VpValue b) {
  if (!a.is_heap() || !b.is_heap()) return a.bits == b.bits;
  const GcObj* x = a.AsHeap();
  const GcObj* y = b.AsHeap();
  if (x->type != y->type) return false;
  switch (x->type) {
    case GcType::kString:
      return static_cast<const GcString*>(x)->text ==
             static_cast<const GcString*>(y)->text;
    case GcType::kArray: {
      const auto& p = static_cast<const GcArray*>(x)->items;
      const auto& q = static_cast<const GcArray*>(y)->items;
      if (p.size() != q.size() || p.capacity() != q.capacity()) return false;
      for (size_t i = 0; i < p.size(); ++i) {
        if (!SameVmValue(p[i], q[i])) return false;
      }
      return true;
    }
    case GcType::kObject: {
      const auto& p = static_cast<const GcObject*>(x)->items;
      const auto& q = static_cast<const GcObject*>(y)->items;
      if (p.size() != q.size() || p.capacity() != q.capacity()) return false;
      for (size_t i = 0; i < p.size(); ++i) {
        if (p[i].key_id != q[i].key_id || p[i].key != q[i].key ||
            !SameVmValue(p[i].value, q[i].value)) {
          return false;
        }
      }
      return true;
    }
    default:
      return false;  // JSON never yields functions
  }
}

TEST(VmJson, ImportMatchesTheBoxedRoute) {
  std::vector<std::string> corpus = {
      R"({"b":1,"a":[1,2,{"c":"x"}],"z":null})",
      R"([])", R"({})", R"("str")", R"(12.5)", R"(true)", R"(null)",
      R"([[[[1]]],{"k":{"k":{"k":[]}}}])",
      R"(["q\"uote\\back\nnl\u0001\u00e9", "long string past the small-string buffer"])",
      R"([1e308,-0,5e-324,0.1,-17])",
      R"({"a":1,"a":2,"b":[{"a":3}]})",
  };
  // The activity window: 15 poses as the pose service returns them.
  json::Value window = json::Value::MakeObject();
  for (int p = 0; p < 15; ++p) {
    json::Value pose = json::Value::MakeObject();
    for (int k = 0; k < 17; ++k) {
      json::Value kp = json::Value::MakeObject();
      kp["x"] = json::Value(p * 3.25 + k);
      kp["y"] = json::Value(k * 1.5);
      kp["detected"] = json::Value(k % 3 != 0);
      kp["confidence"] = json::Value(0.5 + k / 40.0);
      pose["keypoints"].PushBack(std::move(kp));
    }
    pose["num_detected"] = json::Value(12);
    window["poses"].PushBack(std::move(pose));
  }
  corpus.push_back(json::Write(window));

  for (const std::string& text : corpus) {
    auto j = json::Parse(text);
    ASSERT_TRUE(j.ok()) << text;
    Vm direct(InterpreterLimits{}, nullptr);
    Vm boxed(InterpreterLimits{}, nullptr);
    const VpValue a = direct.ImportJson(*j);
    const VpValue b = boxed.BoxedToVm(JsonToScript(*j));
    EXPECT_EQ(direct.ToDisplayString(a), boxed.ToDisplayString(b)) << text;
    EXPECT_TRUE(SameVmValue(a, b)) << text;
    EXPECT_EQ(direct.live_objects(), boxed.live_objects()) << text;
    EXPECT_EQ(direct.bytes_allocated(), boxed.bytes_allocated()) << text;
    // Byte accounting after a collection reads the final capacities.
    TempRootScope keep_a(direct);
    TempRootScope keep_b(boxed);
    keep_a.Pin(a);
    keep_b.Pin(b);
    direct.CollectGarbage();
    boxed.CollectGarbage();
    EXPECT_EQ(direct.bytes_allocated(), boxed.bytes_allocated()) << text;
  }
}

// ------------------------------ error text and check order at the host

TEST(VmHostBoundary, JsonHostFunctionsKeepErrorTextAndCheckOrder) {
  // A bad name or argument is reported before a payload that has no
  // JSON form, except a payload too deep to leave the VM at all, which
  // fails first. The expected lines were recorded from the boxed route
  // these functions took before they took JSON.
  const char* probe = R"JS(
    var errors = [];
    function cyc() { var o = { k: 1 }; o.self = o; return o; }
    function cyc_list() { var l = [1]; l.push(l); return l; }
    function deep() { var a = 1; for (var i = 0; i < 600; i++) a = [a]; return { d: a }; }
    function shared_deep() {
      var list = []; var c = {};
      for (var i = 0; i < 600; i++) { list.push(c); c = { next: c }; }
      return { all: list };
    }
    function fn() { return { f: function g() {} }; }
    function probe(label, f) {
      try { f(); errors.push(label + ": ok"); }
      catch (e) { errors.push(label + ": " + e.message); }
    }
    function init() {
      probe("svc cyclic", function () { call_service("pose_detector", cyc()); });
      probe("svc name, cyclic", function () { call_service(1, cyc()); });
      probe("svc undeclared, cyclic", function () { call_service("nope", cyc()); });
      probe("svc deep", function () { call_service("pose_detector", deep()); });
      probe("svc name, deep", function () { call_service(1, deep()); });
      probe("svc shared deep", function () { call_service("pose_detector", shared_deep()); });
      probe("svc name, shared deep", function () { call_service(1, shared_deep()); });
      probe("svc function", function () { call_service("pose_detector", fn()); });
      probe("svc name, function", function () { call_service(1, fn()); });
      probe("svc third arg deep", function () { call_service(1, {}, deep()); });
      probe("mod cyclic", function () { call_module("b_module", cyc_list()); });
      probe("mod name, cyclic", function () { call_module(null, cyc()); });
      probe("mod no edge, cyclic", function () { call_module("a_module", cyc()); });
      probe("mod deep", function () { call_module("b_module", deep()); });
      probe("mod name, deep", function () { call_module(null, deep()); });
      probe("mod function", function () { call_module("b_module", fn()); });
      probe("timer cyclic", function () { set_timer(5, cyc()); });
      probe("timer ms, cyclic", function () { set_timer(-1, cyc()); });
      probe("timer cyclic array", function () { set_timer(5, cyc_list()); });
      probe("timer deep array", function () { set_timer(5, deep().d); });
      probe("timer ms, deep", function () { set_timer("x", deep()); });
      probe("timer function", function () { set_timer(5, fn()); });
      probe("stringify cyclic", function () { JSON.stringify(cyc()); });
      probe("stringify deep", function () { JSON.stringify(deep()); });
      probe("stringify shared deep", function () { JSON.stringify(shared_deep()); });
      probe("stringify function", function () { JSON.stringify(fn()); });
      probe("parse number", function () { JSON.parse(5); });
    }
    function event_received(m) {}
  )JS";
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  auto spec = core::ParsePipelineConfigText(R"CFG({
    "name": "probe",
    "source": { "fps": 10, "width": 64, "height": 48 },
    "modules": [
      { "name": "cam", "type": "source", "next_module": ["a_module"] },
      { "name": "a_module", "include": "Probe.js", "signal_source": true,
        "service": ["pose_detector"], "next_module": ["b_module"] },
      { "name": "b_module", "code": "function event_received(m) {}" }
    ]
  })CFG",
                                            core::MapResolver({{"Probe.js",
                                                                probe}}));
  ASSERT_TRUE(spec.ok()) << spec.error().ToString();
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  auto deployment = orchestrator.Deploy(std::move(*spec), std::move(args));
  ASSERT_TRUE(deployment.ok()) << deployment.error().ToString();
  core::ModuleRuntime* a = (*deployment)->FindModule("a_module");
  ASSERT_NE(a, nullptr);
  const Value errors = a->context().GetGlobal("errors");
  ASSERT_TRUE(errors.is_array());
  std::vector<std::string> got;
  for (const Value& line : *errors.AsArray()) got.push_back(line.AsString());
  const std::vector<std::string> expected = {
      "svc cyclic: script:17: cannot serialize a cyclic value to JSON",
      "svc name, cyclic: script:18: call_service(service, message): service name needed",
      "svc undeclared, cyclic: script:19: module 'a_module' does not declare service 'nope' in its config",
      "svc deep: script:20: cannot pass a value nested deeper than 512 levels to the host",
      "svc name, deep: script:21: cannot pass a value nested deeper than 512 levels to the host",
      "svc shared deep: script:22: cannot serialize a value nested deeper than 512 levels to JSON",
      "svc name, shared deep: script:23: call_service(service, message): service name needed",
      "svc function: script:24: cannot serialize a function to JSON",
      "svc name, function: script:25: call_service(service, message): service name needed",
      "svc third arg deep: script:26: cannot pass a value nested deeper than 512 levels to the host",
      "mod cyclic: script:27: cannot serialize a cyclic value to JSON",
      "mod name, cyclic: script:28: call_module(module, message): module name needed",
      "mod no edge, cyclic: script:29: module 'a_module' has no edge to 'a_module' (declare it in next_module)",
      "mod deep: script:30: cannot pass a value nested deeper than 512 levels to the host",
      "mod name, deep: script:31: cannot pass a value nested deeper than 512 levels to the host",
      "mod function: script:32: cannot serialize a function to JSON",
      "timer cyclic: script:33: cannot serialize a cyclic value to JSON",
      "timer ms, cyclic: script:34: set_timer: ms must be in [0, 3.6e6]",
      "timer cyclic array: ok",
      "timer deep array: script:36: cannot pass a value nested deeper than 512 levels to the host",
      "timer ms, deep: script:37: cannot pass a value nested deeper than 512 levels to the host",
      "timer function: script:38: cannot serialize a function to JSON",
      "stringify cyclic: script:39: cannot serialize a cyclic value to JSON",
      "stringify deep: script:40: cannot pass a value nested deeper than 512 levels to the host",
      "stringify shared deep: script:41: cannot serialize a value nested deeper than 512 levels to JSON",
      "stringify function: script:42: cannot serialize a function to JSON",
      "parse number: script:43: JSON.parse needs a string",
  };
  EXPECT_EQ(got, expected);
  EXPECT_EQ(a->stats().service_calls, 0u);
  EXPECT_EQ(a->stats().module_sends, 0u);
}

TEST(VmHostBoundary, JsonHostFunctionsServeBoxedCallers) {
  // Read out of the VM, JSON.stringify is a boxed host function like
  // any other; it converts through ScriptToJson / JsonToScript.
  Context context;
  ASSERT_TRUE(context.Load("var ok = 1;").ok());
  const Value json_ns = context.GetGlobal("JSON");
  ASSERT_TRUE(json_ns.is_object());
  const Value* stringify = json_ns.AsObject()->Find("stringify");
  const Value* parse = json_ns.AsObject()->Find("parse");
  ASSERT_TRUE(stringify != nullptr && stringify->is_function());
  ASSERT_TRUE(parse != nullptr && parse->is_function());
  auto payload = Value::MakeObject();
  payload.AsObject()->Set("b", Value::MakeArray());
  payload.AsObject()->Set("a", Value(2.5));
  std::vector<Value> args = {payload};
  auto text = stringify->AsHostFunction()->fn(args, context.interpreter());
  ASSERT_TRUE(text.ok()) << text.error().ToString();
  EXPECT_EQ(text->AsString(), R"({"b":[],"a":2.5})");
  std::vector<Value> parse_args = {*text};
  auto back = parse->AsHostFunction()->fn(parse_args, context.interpreter());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToDisplayString(), "{b: [], a: 2.5}");
  payload.AsObject()->Set("self", payload);
  auto cyclic = stringify->AsHostFunction()->fn(args, context.interpreter());
  payload.AsObject()->Clear();  // free the cycle
  ASSERT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.error().message(),
            "cannot serialize a cyclic value to JSON");
}

TEST(VmHostBoundary, CyclicResultsFailInsteadOfLeaking) {
  // A cyclic value handed to C++ as boxed shared_ptrs leaks unless the
  // caller breaks the cycle, which leak detection (the asan job) reports.
  // Call fails instead and GetGlobal reads undefined, as for values
  // nested too deep.
  Context context;
  ASSERT_TRUE(context
                  .Load(R"(
    var loop = { n: 1 }; loop.self = loop;
    var ring = [1]; ring.push([ring]);
    var shared = { s: [1] }; shared.t = shared.s;
    function make_loop() { var o = { n: 2 }; o.me = [o]; return o; }
    function get_shared() { return shared; }
  )")
                  .ok());
  auto r = context.Call("make_loop", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), StatusCode::kScriptError);
  EXPECT_EQ(r.error().message(), "cannot pass a cyclic value to the host");
  EXPECT_TRUE(context.GetGlobal("loop").is_undefined());
  EXPECT_TRUE(context.GetGlobal("ring").is_undefined());
  // Sharing without a cycle still crosses.
  auto shared = context.Call("get_shared", {});
  ASSERT_TRUE(shared.ok()) << shared.error().ToString();
  EXPECT_EQ(shared->ToDisplayString(), "{s: [1], t: [1]}");
  EXPECT_EQ(shared->AsObject()->Find("s")->AsArray(),
            shared->AsObject()->Find("t")->AsArray());
}

TEST(VmHostBoundary, EventPayloadsArriveAsJson) {
  Context context;
  ASSERT_TRUE(context
                  .Load(R"(
    var seen = "";
    function event_received(m) {
      seen = m.frame_id + ":" + m.pose.keypoints.length + ":" + JSON.stringify(m);
      return m.frame_id;
    }
  )")
                  .ok());
  auto payload = json::Parse(
      R"({"frame_id":7,"pose":{"keypoints":[{"x":1,"y":2}],"ok":true}})");
  ASSERT_TRUE(payload.ok());
  auto r = context.CallJson("event_received", *payload);
  ASSERT_TRUE(r.ok()) << r.error().ToString();
  EXPECT_EQ(r->AsNumber(), 7.0);
  EXPECT_EQ(context.GetGlobal("seen").AsString(),
            R"(7:1:{"frame_id":7,"pose":{"keypoints":[{"x":1,"y":2}],)"
            R"("ok":true}})");
  auto missing = context.CallJson("absent", *payload);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), StatusCode::kNotFound);
}

// --------------------------------------------------- checkpoint / restore

const char* kStatefulModule = R"(
  var counters = { events: 0, total: 0 };
  var history = [];
  var ratio = 0;
  function event_received(e) {
    counters.events += 1;
    counters.total += e.value;
    history.push(e.value * 2);
    if (history.length > 4) history.shift();
    ratio = counters.total / counters.events;
    return counters.events;
  }
)";

void Drive(Context& context, int from, int count) {
  for (int i = from; i < from + count; ++i) {
    auto e = Value::MakeObject();
    e.AsObject()->Set("value", Value(static_cast<double>(i)));
    ASSERT_TRUE(context.Call("event_received", {e}).ok());
  }
}

TEST(VmCheckpoint, SnapshotsMatchTheInterpreters) {
  Context context;
  ASSERT_TRUE(context.Load(kStatefulModule).ok());
  Drive(context, 0, 7);
  EXPECT_EQ(json::Write(context.SnapshotState()),
            R"({"counters":{"events":7,"total":21},"history":[6,8,10,12],)"
            R"("ratio":3})");
}

TEST(VmCheckpoint, RestoreResumesIdentically) {
  // An uninterrupted run, a VM checkpoint restored into a fresh
  // context, and the interpreter's checkpoint at the same point must
  // all converge on the interpreter's final state.
  const std::string interp_checkpoint =
      R"({"counters":{"events":5,"total":10},"history":[2,4,6,8],"ratio":2})";
  const std::string final_state =
      R"({"counters":{"events":10,"total":45},"history":[12,14,16,18],)"
      R"("ratio":4.5})";

  Context straight;
  ASSERT_TRUE(straight.Load(kStatefulModule).ok());
  Drive(straight, 0, 5);
  EXPECT_EQ(json::Write(straight.SnapshotState()), interp_checkpoint);
  const json::Value vm_checkpoint = straight.SnapshotState();
  Drive(straight, 5, 5);
  EXPECT_EQ(json::Write(straight.SnapshotState()), final_state);

  for (const json::Value& checkpoint :
       {vm_checkpoint, *json::Parse(interp_checkpoint)}) {
    Context target;
    ASSERT_TRUE(target.Load(kStatefulModule).ok());
    ASSERT_TRUE(target.RestoreState(checkpoint).ok());
    Drive(target, 5, 5);
    EXPECT_EQ(json::Write(target.SnapshotState()), final_state);
  }
}

// ------------------------------------------------ seeded determinism

/// FNV-1a 64 over each value's JSON text followed by ';'.
uint64_t HashValues(const std::vector<std::string>& values) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& v : values) {
    for (unsigned char c : v + ";") {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(VmDeterminism, SeededRunsMatchInterpreterBitForBit) {
  const char* module = R"(
    var stats = { sum: 0, max: 0, picks: [] };
    function event_received(e) {
      var r = Math.random();
      stats.sum += r;
      if (r > stats.max) stats.max = r;
      if (stats.picks.length < 3) stats.picks.push(r);
      return r;
    }
  )";
  struct Run {
    uint64_t seed;
    uint64_t values_hash;  // the 50 returned values, bit for bit
    std::string snapshot;
  };
  const std::vector<Run> runs = {
      {1, 0xea4d51a0547ed600ull,
       R"({"stats":{"sum":24.983313663017768,"max":0.98224580838715392,)"
       R"("picks":[0.70292183315885048,0.52043661993885693,0.5741057000197225]}})"},
      {2, 0xcab8d4e288b64448ull,
       R"({"stats":{"sum":24.592936166486577,"max":0.9978931422371724,)"
       R"("picks":[0.10217911323039464,0.72551728851515596,0.18396244547340834]}})"},
      {3, 0x7c956e0878f61ab7ull,
       R"({"stats":{"sum":26.458154381296286,"max":0.98072989523670995,)"
       R"("picks":[0.69063829511778796,0.6405810067354607,0.21826237328256315]}})"},
      {4, 0x7c9303f7e52afc50ull,
       R"({"stats":{"sum":24.212838977704067,"max":0.97755356277447147,)"
       R"("picks":[0.26343295837749359,0.91153034564263713,0.44336700255557693]}})"},
      {5, 0xbbe2fd324e460fcdull,
       R"({"stats":{"sum":27.22240995071785,"max":0.99852561798090256,)"
       R"("picks":[0.28841122817023568,0.60208233313201065,0.64954673055102219]}})"},
  };
  for (const Run& run : runs) {
    ContextOptions options;
    options.random_seed = run.seed;
    Context context(options);
    ASSERT_TRUE(context.Load(module).ok());
    std::vector<std::string> values;
    for (int i = 0; i < 50; ++i) {
      auto r = context.Call("event_received", {Value::MakeObject()});
      ASSERT_TRUE(r.ok());
      values.push_back(json::Write(json::Value(r->AsNumber())));
    }
    EXPECT_EQ(HashValues(values), run.values_hash) << "seed " << run.seed;
    EXPECT_EQ(json::Write(context.SnapshotState()), run.snapshot)
        << "seed " << run.seed;
  }
}

// ------------------------------------------------------- restore guards

TEST(VmRestore, ConstGlobalsStayConst) {
  const std::string module = R"(
    const LIMIT = 5;
    function bump() { LIMIT = 6; return LIMIT; }
  )";
  Context fresh;
  ASSERT_TRUE(fresh.Load(module).ok());
  auto before = fresh.Call("bump", {});
  ASSERT_FALSE(before.ok());
  EXPECT_EQ(before.error().message(), "script:3: assignment to const 'LIMIT'");

  Context restored;
  ASSERT_TRUE(restored.Load(module).ok());
  ASSERT_TRUE(restored.RestoreState(fresh.SnapshotState()).ok());
  auto after = restored.Call("bump", {});
  ASSERT_FALSE(after.ok()) << "restore dropped const";
  EXPECT_EQ(after.error().message(), before.error().message());
  EXPECT_EQ(restored.GetGlobal("LIMIT").ToNumber(), 5.0);
}

TEST(VmRestore, RejectsBaselineNamesAndWritesNothing) {
  for (const std::string& baseline : {"Math", "call_service"}) {
    Context context;
    context.RegisterHostFunction(
        "call_service",
        [](std::vector<Value>&, Interpreter&) -> Result<Value> {
          return Value(7.0);
        });
    ASSERT_TRUE(context
                    .Load("var count = 1;\n"
                          "function probe() {\n"
                          "  return Math.floor(2.5) + call_service();\n"
                          "}")
                    .ok());
    json::Value snapshot = json::Value::MakeObject();
    snapshot["count"] = json::Value(9);
    snapshot[baseline] = json::Value(1);
    const Status s = context.RestoreState(snapshot);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << baseline;
    EXPECT_EQ(s.message(),
              "state snapshot names baseline global '" + baseline + "'");
    EXPECT_EQ(context.GetGlobal("count").ToNumber(), 1.0) << baseline;
    auto r = context.Call("probe", {});
    ASSERT_TRUE(r.ok()) << r.error().ToString();
    EXPECT_EQ(r->ToNumber(), 9.0);
  }
}

TEST(VmRestore, RejectsSnapshotsPastTheSlotLimit) {
  // Slot indices are u16 bytecode operands: a snapshot that needs more
  // than Vm::kMaxGlobals slots used to wrap around and overwrite the
  // module's own globals (its functions included).
  Context context;
  ASSERT_TRUE(
      context.Load("var keep = 1;\nfunction f() { return keep; }").ok());
  // Fill the slot table in chunks (json::Value objects insert in
  // linear time per key), leaving fewer free slots than one chunk.
  constexpr int kChunk = 1000;
  int next = 0;
  auto junk = [&next](int keys) {
    json::Value snapshot = json::Value::MakeObject();
    for (int i = 0; i < keys; ++i, ++next) {
      snapshot["junk" + std::to_string(next)] = json::Value(next);
    }
    return snapshot;
  };
  for (int chunk = 0; chunk < 65; ++chunk) {
    ASSERT_TRUE(context.RestoreState(junk(kChunk)).ok()) << chunk;
  }
  json::Value overflow = junk(kChunk);
  overflow["keep"] = json::Value(2);
  const Status s = context.RestoreState(overflow);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("limit 65536"), std::string::npos)
      << s.message();
  // Nothing of the rejected snapshot was written.
  EXPECT_TRUE(context.GetGlobal("junk" + std::to_string(next - 1))
                  .is_undefined());
  auto r = context.Call("f", {});
  ASSERT_TRUE(r.ok()) << r.error().ToString();
  EXPECT_EQ(r->ToNumber(), 1.0);
  EXPECT_EQ(context.GetGlobal("junk0").ToNumber(), 0.0);
}

TEST(VmRestore, NeedsALoadedProgram) {
  Context context;
  EXPECT_EQ(context.RestoreState(json::Value::MakeObject()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(VmGlobals, SlotTableFailsPastTheLimit) {
  Vm vm(InterpreterLimits{}, nullptr);
  for (size_t i = 0; i < Vm::kMaxGlobals; ++i) {
    ASSERT_TRUE(vm.GlobalSlot("g" + std::to_string(i)).ok()) << i;
  }
  EXPECT_TRUE(vm.GlobalSlot("g0").ok());  // existing names still resolve
  auto overflow = vm.GlobalSlot("one_too_many");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(overflow.error().message(), "too many globals");
}

TEST(VmGlobals, TooManyGlobalsIsALoadError) {
  std::string source;
  for (size_t i = 0; i <= Vm::kMaxGlobals; ++i) {
    source += "var v" + std::to_string(i) + " = 0;\n";
  }
  Context context;
  const Status s = context.Load(source);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "script compile: too many globals");
}

TEST(VmStackLimits, DeepFramesWithWideLiteralOverflowGracefully) {
  // Regression: pushes inside a frame used to be unchecked beyond a
  // fixed 4096-slot call-entry headroom, so recursion with fat frames
  // plus one wide array literal wrote past the end of the VM value
  // stack (heap corruption). The compiler now computes each proto's
  // worst-case stack depth and PushFrame rejects a call that cannot
  // fit, surfacing an ordinary catchable script error instead.
  std::string source = "function deep(n) {\n";
  for (int i = 0; i < 1200; ++i) {
    source += "  var l" + std::to_string(i) + " = n;\n";
  }
  source += "  if (n > 0) return deep(n - 1);\n  var wide = [";
  for (int i = 0; i < 8000; ++i) source += "0,";
  source += "0];\n  return wide.length;\n}\nvar result = deep(200);\n";

  Context context;
  Status loaded = context.Load(source);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().ToString().find("stack overflow"),
            std::string::npos)
      << loaded.error().ToString();
}

TEST(VmStackLimits, WideLiteralsBeyondTheOldHeadroomStillEvaluate) {
  // A single wide literal at shallow depth fits comfortably and must
  // not be rejected by the per-proto bound (6001 > the old 4096-slot
  // headroom, so this also exercises the unchecked-push path the
  // max_stack check now covers).
  std::string source = "var result = [";
  for (int i = 0; i < 6000; ++i) source += "1,";
  source += "1].length;\n";
  EXPECT_EQ(EvalDisplay(source), "6001");
}

TEST(VmContextReload, CompileLimitOnReloadIsALoadError) {
  // A reload replaces the program even when the new one fails: the
  // first Load's globals must stop answering (HasFunction / Call /
  // GetGlobal), and the compiler's size limit comes back as the error.
  Context context;
  ASSERT_TRUE(
      context.Load("function probe() { return 1; } var result = 7;").ok());
  ASSERT_TRUE(context.HasFunction("probe"));

  // 256 call arguments exceed the compiler's u8 argc operand.
  std::string args = "0";
  for (int i = 1; i < 256; ++i) args += ", 0";
  const std::string second = "function fresh() { return 42; }\n"
                             "function wide() { return 9; }\n"
                             "var result = wide(" + args + ");\n";
  const Status loaded = context.Load(second);
  EXPECT_EQ(loaded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(loaded.message(), "script compile: too many call arguments");

  EXPECT_EQ(context.vm(), nullptr);
  EXPECT_FALSE(context.HasFunction("probe"));
  EXPECT_FALSE(context.HasFunction("fresh"));
  EXPECT_TRUE(context.GetGlobal("result").is_undefined());
  EXPECT_EQ(context.Call("probe", {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(json::Write(context.SnapshotState()), "{}");

  // The context stays usable: a loadable program runs again.
  ASSERT_TRUE(context.Load("function fresh() { return 42; }").ok());
  auto out = context.Call("fresh", {});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->ToDisplayString(), "42");
}

}  // namespace
}  // namespace vp::script
