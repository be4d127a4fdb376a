// Microbenchmarks: the vpscript engine (our Duktape stand-in) — the
// per-event overhead every module pays.
//
// Custom main(): VP_BENCH_SMOKE=1 skips google-benchmark and instead
// times VM event dispatch and Context::Load (warm: program cache hit;
// cold: cache cleared first), writing BENCH_script.json for CI to
// archive.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "harness.hpp"
#include "script/context.hpp"
#include "script/convert.hpp"
#include "script/parser.hpp"
#include "script/program_cache.hpp"

using namespace vp;

namespace {

const char* kModuleSource = R"JS(
var history = [];
function event_received(msg) {
  history.push(msg.value);
  if (history.length > 15) history.shift();
  var total = 0;
  for (var i = 0; i < history.length; i++) total += history[i];
  return total;
}
)JS";

void BM_ParseModule(benchmark::State& state) {
  for (auto _ : state) {
    auto program = script::ParseProgram(kModuleSource);
    benchmark::DoNotOptimize(program);
  }
}
BENCHMARK(BM_ParseModule);

void BM_ContextLoad(benchmark::State& state) {
  for (auto _ : state) {
    script::Context context;
    benchmark::DoNotOptimize(context.Load(kModuleSource));
  }
}
BENCHMARK(BM_ContextLoad);

void BM_EventDispatch(benchmark::State& state) {
  script::Context context;
  (void)context.Load(kModuleSource);
  auto message = script::Value::MakeObject();
  message.AsObject()->Set("value", script::Value(1.5));
  for (auto _ : state) {
    auto result = context.Call("event_received", {message});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EventDispatch);

void BM_Fibonacci(benchmark::State& state) {
  script::Context context;
  (void)context.Load(
      "function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }");
  for (auto _ : state) {
    auto result = context.Call(
        "fib", {script::Value(static_cast<double>(state.range(0)))});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Fibonacci)->Arg(10)->Arg(15);

void BM_JsonToScriptRoundTrip(benchmark::State& state) {
  json::Value doc = json::Value::MakeObject();
  for (int i = 0; i < 17; ++i) {
    json::Value kp = json::Value::MakeObject();
    kp["x"] = json::Value(i * 1.5);
    kp["y"] = json::Value(i * 2.5);
    kp["detected"] = json::Value(true);
    doc["keypoints"].PushBack(std::move(kp));
  }
  for (auto _ : state) {
    const script::Value v = script::JsonToScript(doc);
    auto back = script::ScriptToJson(v);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_JsonToScriptRoundTrip);

// ------------------------------------------------------- smoke mode

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-event dispatch cost (µs), best round of `rounds` (scheduler
/// noise is strictly additive, so best-of is unbiased).
double MeasureDispatchUs(int rounds, int calls) {
  script::Context context;
  if (!context.Load(kModuleSource).ok()) std::abort();
  auto message = script::Value::MakeObject();
  message.AsObject()->Set("value", script::Value(1.5));
  for (int i = 0; i < 2000; ++i) {  // warm caches / pools
    (void)context.Call("event_received", {message});
  }
  double best = 1e18;
  for (int r = 0; r < rounds; ++r) {
    const double start = NowUs();
    for (int i = 0; i < calls; ++i) {
      auto result = context.Call("event_received", {message});
      benchmark::DoNotOptimize(result);
    }
    best = std::min(best, (NowUs() - start) / calls);
  }
  return best;
}

/// Context construction + Load cost (µs), best round. Warm loads link
/// the cached program; cold loads clear the program cache first, so
/// they also parse, fold and compile.
double MeasureLoadUs(bool cold, int rounds, int loads) {
  double best = 1e18;
  for (int r = 0; r < rounds; ++r) {
    const double start = NowUs();
    for (int i = 0; i < loads; ++i) {
      if (cold) script::ProgramCache::Global().Clear();
      script::Context context;
      benchmark::DoNotOptimize(context.Load(kModuleSource));
    }
    best = std::min(best, (NowUs() - start) / loads);
  }
  return best;
}

int SmokeMain() {
  // Best-of-9: scheduler noise is strictly additive, so more rounds
  // tighten the minimum without biasing it.
  const int rounds = 9;
  const double vm_us = MeasureDispatchUs(rounds, 5000);
  const double load_warm_us = MeasureLoadUs(/*cold=*/false, rounds, 300);
  const double load_cold_us = MeasureLoadUs(/*cold=*/true, rounds, 300);

  json::Value doc = json::Value::MakeObject();
  doc["bench"] = json::Value("micro_script");
  doc["dispatch_us_vm"] = json::Value(vm_us);
  // Key kept from when a second engine was measured: the warm load.
  doc["load_us_resolved"] = json::Value(load_warm_us);
  doc["load_us_cold"] = json::Value(load_cold_us);
  bench::WriteBenchJson("script", doc);
  std::printf("dispatch: vm %.2f us; load: warm %.1f us, cold %.1f us\n",
              vm_us, load_warm_us, load_cold_us);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (vp::bench::SmokeMode()) return SmokeMain();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
