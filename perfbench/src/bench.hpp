// The repository benchmark: workloads, wall-clock spans and the
// measurements main.cpp turns into metrics.
//
// Everything here calls the system through its public headers only.
// Spans are recorded in the benchmark's own code around the calls it
// makes; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/fall.hpp"
#include "apps/iot.hpp"
#include "core/orchestrator.hpp"
#include "fleet/fleet.hpp"
#include "json/value.hpp"
#include "lifecycle/hibernation.hpp"
#include "media/motion.hpp"
#include "media/renderer.hpp"
#include "modelreg/registry.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace vp;
using Clock = std::chrono::steady_clock;

/// Wall seconds between two steady-clock readings.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// In-memory wall-clock spans, written once at the end as Chrome-trace
/// JSON. Disabled recorders drop every span (the untraced runs).
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Microseconds since the recorder was created.
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - origin_)
        .count();
  }
  void Add(const std::string& name, const std::string& category,
           int64_t start_us, int64_t end_us);
  /// Summed duration of every span called `name`, in ms.
  double TotalMs(const std::string& name) const;
  /// Durations of every span called `name`, in µs.
  std::vector<double> DurationsUs(const std::string& name) const;
  json::Value ChromeTrace() const;

 private:
  struct Span {
    std::string name;
    std::string category;
    int64_t start_us = 0;
    int64_t end_us = 0;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when enabled.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& recorder, std::string name, std::string category)
      : recorder_(recorder), name_(std::move(name)),
        category_(std::move(category)),
        start_us_(recorder.enabled() ? recorder.NowUs() : 0) {}
  ~ScopedSpan() {
    if (recorder_.enabled()) {
      recorder_.Add(name_, category_, start_us_, recorder_.NowUs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& recorder_;
  std::string name_;
  std::string category_;
  int64_t start_us_;
};

/// Size and seed of one workload instance.
struct Params {
  uint64_t seed = 1;
  /// Virtual seconds the timed window covers.
  double window_vsec = 10;
  /// Tiny scale (self-test): fewer homes, shorter churn period.
  bool tiny = false;
  /// fleet-churn only: run on the sharded parallel engine.
  bool parallel = false;
  int threads = 1;
};

/// One deployed pipeline and what its camera films.
struct Pipe {
  core::PipelineDeployment* deployment = nullptr;
  int home = 0;
  std::string app;  // "fitness", "gesture" or "fall"
  media::MotionScript script;
  media::SceneOptions scene;
  uint64_t source_seed = 0;
};

/// What the lifecycle churn did, counted at the calls the benchmark
/// makes (HibernationManager::Hibernate / RequestWake).
struct LifecycleTally {
  uint64_t hibernations = 0;
  uint64_t hibernate_failures = 0;
  /// Frames in flight when their pipeline was deliberately hibernated.
  uint64_t written_off = 0;
  uint64_t wakes_requested = 0;
  uint64_t wakes_done = 0;
  uint64_t wakes_failed = 0;
  /// Virtual ms from RequestWake to its done callback.
  std::vector<double> wake_ms;
  /// Module events of runtimes released by hibernation.
  uint64_t released_module_events = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the cluster or fleet, train the models, deploy. Everything
  /// up to (not including) the first timed slice.
  virtual void Setup(Recorder& recorder) = 0;
  /// Start the cameras and the periodic churn and offload events.
  virtual void Start(Recorder& recorder) = 0;
  /// Advance virtual time by one slice.
  virtual void Advance(Duration slice) = 0;

  /// The simulators timed runs execute on (empty on the parallel
  /// engine, which only the untimed cross-check uses).
  virtual std::vector<sim::Simulator*> simulators() = 0;
  virtual std::vector<core::Orchestrator*> orchestrators() = 0;
  virtual modelreg::ModelRegistry& models() = 0;
  virtual fleet::Fleet* fleet() { return nullptr; }

  /// fleet-churn: the absolute time every home was aligned to before
  /// Start. The engine cross-check hands the sequential run's value to
  /// the parallel run so both cameras film the same script times.
  virtual TimePoint aligned_at() const { return TimePoint(); }
  virtual void set_align_target(TimePoint) {}

  const std::vector<Pipe>& pipes() const { return pipes_; }
  virtual LifecycleTally lifecycle() const { return {}; }
  const apps::IoTHub* hub() const { return hub_.get(); }
  const apps::fall::AlertLog* alerts() const { return alerts_.get(); }
  std::vector<lifecycle::HibernationManager*> hibernation_managers() const {
    std::vector<lifecycle::HibernationManager*> out;
    for (const auto& m : managers_) out.push_back(m.get());
    return out;
  }
 protected:
  std::vector<Pipe> pipes_;
  std::shared_ptr<apps::IoTHub> hub_;
  std::shared_ptr<apps::fall::AlertLog> alerts_;
  std::vector<std::unique_ptr<lifecycle::HibernationManager>> managers_;
};

/// What the timed window measured, for building the metrics.
struct Window {
  double slice_vsec = 0;
  /// Wall seconds of every slice, in order.
  std::vector<double> slice_wall_s;
  /// The same, scaled to the reference host speed (see main.cpp).
  std::vector<double> slice_scaled_s;
  /// Traced runs alternate: odd slices carry the per-event hook.
  std::vector<bool> slice_traced;
  /// Wall µs between consecutive events (traced slices only).
  std::vector<double> event_wall_us;
  uint64_t events = 0;
  sim::SimAllocStats alloc_before;
  sim::SimAllocStats alloc_after;
  uint64_t frames_completed = 0;
  double wall_s = 0;
  /// Module events executed before the window (deploy-time init).
  uint64_t module_events_before = 0;
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 if empty.
double Quantile(std::vector<double> values, double q);

/// Module events executed by live runtimes plus those released by
/// hibernation.
uint64_t ModuleEvents(const Workload& workload);

/// Per-layer metrics of a traced window (probes.cpp), appended to
/// `out` in BENCHMARK.json order.
void AddLayerMetrics(Workload& workload, const std::string& name,
                     const Window& window, Recorder& recorder, Metrics& out);

/// "paper-home", "shared-home" or "fleet-churn"; nullptr otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Params& params);
const std::vector<std::string>& WorkloadNames();

/// Virtual seconds per slice and virtual seconds of window per wall
/// second of --seconds, per workload (see README.md, "Sizing").
double SliceVsec(const std::string& workload);
double VsecPerWallSecond(const std::string& workload);

/// The workout loop every fitness camera films (the default session,
/// repeated so long windows stay busy).
media::MotionScript LoopedWorkout(int repeats);

}  // namespace perfbench
