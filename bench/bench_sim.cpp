// Engine benchmark: sequential vs sharded-parallel discrete-event core
// on a multi-home fleet workload, swept over worker-thread counts.
//
// Two workloads, both fitness@10 with the serving layer on:
//
//  * independent — no cloud tier, so homes never interact: the
//    parallel engine's lookahead is effectively unbounded and a whole
//    run is a handful of epochs. This is the pure engine-throughput
//    ceiling.
//  * coupled — every home offloads a 30 ms cloud job every 250 ms
//    through the shared tier, so the engine must fence at the 20 ms
//    WAN lookahead window. This prices the conservative-synchronization
//    overhead (segments column).
//
// Every parallel run is cross-checked against the sequential engine:
// per-home pipeline metrics must match exactly (the determinism
// contract, docs/sim.md). The satellite event-pool numbers are
// reported as allocations without/with the free list.
//
// Results → BENCH_sim.json. The ≥3× speedup acceptance gate only
// applies when the host actually has ≥8 cores (host_cores in the
// JSON); determinism and pooling gates always apply.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/fitness.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "json/write.hpp"

using namespace vp;
using namespace vp::bench;

namespace {

void DeployFitnessTo(fleet::Home& home, double fps) {
  auto spec = apps::fitness::Spec();
  if (!spec.ok()) {
    std::fprintf(stderr, "fitness config: %s\n",
                 spec.status().ToString().c_str());
    std::abort();
  }
  spec->source.fps = fps;
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  args.placement.policy = core::PlacementPolicy::kCoLocate;
  auto deployment =
      home.orchestrator->Deploy(std::move(*spec), std::move(args));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy %s: %s\n", home.name.c_str(),
                 deployment.status().ToString().c_str());
    std::abort();
  }
  home.pipelines.push_back(*deployment);
}

struct HomeFp {
  uint64_t completed = 0;
  uint64_t captured = 0;
  double fps = 0;
  uint64_t sheds = 0;
  bool operator==(const HomeFp& o) const {
    return completed == o.completed && captured == o.captured &&
           fps == o.fps && sheds == o.sheds;
  }
};

struct RunOutcome {
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t segments = 0;  // 0 on the sequential engine
  uint64_t cloud_served = 0;
  sim::SimAllocStats alloc;
  std::vector<HomeFp> homes;
};

RunOutcome RunWorkload(int homes, double seconds, bool coupled,
                       bool parallel, int threads) {
  fleet::FleetOptions options;
  options.homes = homes;
  options.seed = 42;
  options.orchestrator.serving.enabled = true;
  options.parallel = parallel;
  options.parallel_options.shards = 8;
  options.parallel_options.threads = threads;
  if (coupled) {
    options.enable_cloud = true;
    options.cloud.slots = std::max(2, homes / 4);
    options.cloud.speed = 4.0;
  }
  fleet::Fleet fleet(options);
  for (int id = 0; id < fleet.size(); ++id) {
    DeployFitnessTo(fleet.home(id), 10);
  }
  // Let deploy-time work (container cold starts) settle before the
  // cameras start, so every home's active window below is warm.
  fleet.RunFor(Duration::Seconds(2));
  if (coupled) {
    // Per-home offload ticks live on each home's own simulator (its
    // shard on the parallel engine); the jobs themselves cross shards
    // through the engine's barrier mailboxes.
    for (int id = 0; id < fleet.size(); ++id) {
      auto tick = std::make_shared<std::function<void()>>();
      *tick = [&fleet, id, tick]() {
        fleet.CloudSubmit(id, Duration::Millis(30));
        fleet.home_simulator(id).After(Duration::Millis(250), *tick);
      };
      fleet.home_simulator(id).After(Duration::Millis(250), *tick);
    }
  }
  fleet.StartAll();

  const auto start = std::chrono::steady_clock::now();
  fleet.RunFor(Duration::Seconds(seconds));
  const auto stop = std::chrono::steady_clock::now();

  RunOutcome out;
  out.wall_s = std::chrono::duration<double>(stop - start).count();
  out.events = fleet.executed_events();
  out.alloc = fleet.alloc_stats();
  if (fleet.parallel_engine()) {
    out.segments = fleet.parallel_engine()->segments();
  }
  if (fleet.cloud()) out.cloud_served = fleet.cloud()->served_total();
  for (int id = 0; id < fleet.size(); ++id) {
    const auto& metrics = fleet.home(id).pipelines[0]->metrics();
    HomeFp fp;
    fp.completed = metrics.frames_completed();
    fp.captured = metrics.frames_captured();
    fp.fps = metrics.EndToEndFps();
    fp.sheds = metrics.requests_shed();
    out.homes.push_back(fp);
  }
  return out;
}

json::Value RowJson(const std::string& engine, int threads,
                    const RunOutcome& r, double speedup, bool identical) {
  json::Value row = json::Value::MakeObject();
  row["engine"] = json::Value(engine);
  row["threads"] = json::Value(threads);
  row["wall_s"] = json::Value(r.wall_s);
  row["events"] = json::Value(static_cast<double>(r.events));
  row["events_per_s"] = json::Value(
      r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0.0);
  row["segments"] = json::Value(static_cast<double>(r.segments));
  row["speedup_vs_sequential"] = json::Value(speedup);
  row["node_allocs"] = json::Value(static_cast<double>(r.alloc.node_allocs));
  row["pool_reuses"] = json::Value(static_cast<double>(r.alloc.pool_reuses));
  row["identical_to_sequential"] = json::Value(identical);
  return row;
}

}  // namespace

int main() {
  const bool smoke = SmokeMode();
  const int homes = smoke ? 4 : 16;
  const double seconds = smoke ? 4.0 : 20.0;
  const std::vector<int> thread_sweep = {1, 2, 4, 8};
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("=== Discrete-event core: sequential vs sharded-parallel "
              "(%d homes, fitness@10, %.0f s virtual, host cores: %u) ===\n",
              homes, seconds, host_cores);

  json::Value doc = json::Value::MakeObject();
  doc["bench"] = json::Value("sim");
  doc["homes"] = json::Value(homes);
  doc["virtual_seconds"] = json::Value(seconds);
  doc["host_cores"] = json::Value(static_cast<int>(host_cores));

  bool determinism_ok = true;
  bool pool_ok = true;
  double best_speedup_at_8 = 0;

  for (const bool coupled : {false, true}) {
    const char* label = coupled ? "coupled (cloud, 20 ms lookahead)"
                                : "independent (no cloud)";
    std::printf("\n-- %s --\n", label);
    std::printf("%-12s %8s %9s %11s %9s %9s %11s\n", "engine", "threads",
                "wall(s)", "events/s", "segments", "speedup", "identical");

    const RunOutcome seq = RunWorkload(homes, seconds, coupled, false, 0);
    std::printf("%-12s %8s %9.2f %11.0f %9s %9s %11s\n", "sequential", "-",
                seq.wall_s,
                seq.wall_s > 0 ? static_cast<double>(seq.events) / seq.wall_s
                               : 0.0,
                "-", "1.00x", "-");
    json::Value::Array rows;
    rows.push_back(RowJson("sequential", 0, seq, 1.0, true));

    // The free list should serve nearly every event after warm-up: the
    // "before" count is what new/delete per event used to cost.
    const uint64_t acquires = seq.alloc.node_allocs + seq.alloc.pool_reuses;
    pool_ok = pool_ok && seq.alloc.pool_reuses > seq.alloc.node_allocs;
    std::printf("   event nodes: %llu acquired, %llu heap allocations "
                "(pool hit rate %.1f%%)\n",
                static_cast<unsigned long long>(acquires),
                static_cast<unsigned long long>(seq.alloc.node_allocs),
                acquires > 0 ? 100.0 *
                                   static_cast<double>(seq.alloc.pool_reuses) /
                                   static_cast<double>(acquires)
                             : 0.0);

    for (int threads : thread_sweep) {
      const RunOutcome par = RunWorkload(homes, seconds, coupled, true,
                                         threads);
      // Per-home metrics and cloud totals must match the sequential
      // engine exactly; total executed events legitimately differ
      // (on the shared clock idle homes tick heartbeats while their
      // siblings deploy — see docs/sim.md).
      const bool identical =
          par.homes == seq.homes && par.cloud_served == seq.cloud_served;
      determinism_ok = determinism_ok && identical;
      const double speedup = par.wall_s > 0 ? seq.wall_s / par.wall_s : 0.0;
      if (threads == 8 && speedup > best_speedup_at_8) {
        best_speedup_at_8 = speedup;
      }
      std::printf("%-12s %8d %9.2f %11.0f %9llu %8.2fx %11s\n", "parallel",
                  threads, par.wall_s,
                  par.wall_s > 0
                      ? static_cast<double>(par.events) / par.wall_s
                      : 0.0,
                  static_cast<unsigned long long>(par.segments), speedup,
                  identical ? "yes" : "NO");
      rows.push_back(RowJson("parallel", threads, par, speedup, identical));
    }
    doc[coupled ? "coupled" : "independent"] = json::Value(std::move(rows));
  }

  std::printf("\nper-home metrics bit-identical on every parallel run  %s\n",
              determinism_ok ? "PASS" : "FAIL");
  std::printf("event-node pool recycles more than it allocates  %s\n",
              pool_ok ? "PASS" : "FAIL");

  // The wall-clock acceptance gate needs real cores to mean anything;
  // on smaller hosts the thread sweep still proves determinism and the
  // JSON still records the curve.
  const bool gate_speedup = host_cores >= 8;
  const bool speedup_ok = !gate_speedup || best_speedup_at_8 >= 3.0;
  if (gate_speedup) {
    std::printf("8-thread speedup %.2fx >= 3x on >=8-core host  %s\n",
                best_speedup_at_8, speedup_ok ? "PASS" : "FAIL");
  } else {
    std::printf("8-thread speedup %.2fx (host has %u cores; >=3x gate "
                "needs 8 — informational)\n",
                best_speedup_at_8, host_cores);
  }

  doc["determinism_ok"] = json::Value(determinism_ok);
  doc["pool_ok"] = json::Value(pool_ok);
  doc["speedup_at_8_threads"] = json::Value(best_speedup_at_8);
  doc["speedup_gate_applies"] = json::Value(gate_speedup);
  doc["speedup_ok"] = json::Value(speedup_ok);
  WriteBenchJson("sim", doc);

  return (determinism_ok && pool_ok && speedup_ok) ? 0 : 1;
}
