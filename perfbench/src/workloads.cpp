// The three benchmark workloads. Why each exists is in README.md; the
// comments here say how each is built.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "bench.hpp"
#include "sim/cluster.hpp"

namespace perfbench {

namespace {

constexpr size_t kTraceRetention = size_t{1} << 22;

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(*result);
}

media::MotionScript Repeat(const std::vector<media::MotionScript::Segment>& one,
                           int repeats) {
  std::vector<media::MotionScript::Segment> segments;
  for (int i = 0; i < repeats; ++i) {
    segments.insert(segments.end(), one.begin(), one.end());
  }
  return Must(media::MotionScript::Make(std::move(segments)), "motion script");
}

/// Repeats of `period_s` needed to cover the window plus the deploy
/// prefix (the camera films the script at absolute virtual time).
int RepeatsFor(double window_vsec, double period_s, double prefix_s) {
  return static_cast<int>(std::ceil((window_vsec + prefix_s) / period_s)) + 1;
}

media::MotionScript GestureLoop(int repeats) {
  return Repeat({{"idle", 3.0, {}},
                 {"wave", 4.8, {.period = 1.2}},
                 {"idle", 3.0, {}},
                 {"clap", 4.0, {.period = 1.0}},
                 {"idle", 3.0, {}},
                 {"wave", 4.8, {.period = 1.3}},
                 {"idle", 3.0, {}},
                 {"clap", 4.0, {.period = 0.9}},
                 {"idle", 6.0, {}}},
                repeats);
}
constexpr double kGesturePeriod = 35.6;

media::MotionScript FallLoop(int repeats) {
  media::MotionParams fall;
  fall.period = 6.0;  // stand 2.4 s, fall over 1.8 s, lie still
  return Repeat({{"idle", 4.0, {}},
                 {"squat", 6.0, {}},
                 {"idle", 2.0, {}},
                 {"fall", 8.0, fall}},
                repeats);
}
constexpr double kFallPeriod = 20.0;
constexpr double kWorkoutPeriod = 41.6;

/// Train the default model recipes into `registry` before any deploy.
/// Deploys then hit the registry's dedupe, so their behaviour is the
/// same as training on first use.
void TrainModels(modelreg::ModelRegistry& registry, Recorder& recorder) {
  ScopedSpan span(recorder, "modelreg.TrainOrGet", "setup");
  Must(registry.TrainOrGet(modelreg::DefaultActivitySpec()), "train activity");
  Must(registry.TrainOrGet(modelreg::DefaultImageSpec()), "train image");
}

core::PipelineSpec AppSpec(const std::string& app) {
  if (app == "fitness") return Must(apps::fitness::Spec(), "fitness spec");
  if (app == "gesture") return Must(apps::gesture::Spec(), "gesture spec");
  return Must(apps::fall::Spec(), "fall spec");
}

/// A single home on its own simulator: paper-home and shared-home.
class HomeWorkload : public Workload {
 public:
  explicit HomeWorkload(const Params& params) : params_(params) {}
  ~HomeWorkload() override { managers_.clear(); }

  void Start(Recorder&) override { orchestrator_->StartAll(); }
  void Advance(Duration slice) override { orchestrator_->RunFor(slice); }
  std::vector<sim::Simulator*> simulators() override {
    return {&cluster_->simulator()};
  }
  std::vector<core::Orchestrator*> orchestrators() override {
    return {orchestrator_.get()};
  }
  modelreg::ModelRegistry& models() override { return registry_; }

 protected:
  void Build(core::OrchestratorOptions options, Recorder& recorder) {
    cluster_ = sim::MakeHomeTestbed(params_.seed);
    TrainModels(registry_, recorder);
    options.seed = params_.seed;
    options.models.registry = &registry_;
    options.trace_retention = kTraceRetention;
    orchestrator_ =
        std::make_unique<core::Orchestrator>(cluster_.get(), options);
  }

  void Deploy(const std::string& app, core::PipelineSpec spec,
              core::Orchestrator::DeployArgs args, Recorder& recorder) {
    Pipe pipe;
    pipe.app = app;
    pipe.script = args.workload;
    pipe.scene = args.scene;
    pipe.scene.width = spec.source.width;
    pipe.scene.height = spec.source.height;
    pipe.source_seed = args.seed;
    ScopedSpan span(recorder, "core.Deploy", "setup");
    pipe.deployment = Must(
        orchestrator_->Deploy(std::move(spec), std::move(args)), "deploy " + app);
    pipes_.push_back(std::move(pipe));
  }

  Params params_;
  modelreg::ModelRegistry registry_;
  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<core::Orchestrator> orchestrator_;
};

/// Fig. 6 configuration: fitness at a 30 FPS source, co-located
/// placement, serving layer off.
class PaperHome : public HomeWorkload {
 public:
  using HomeWorkload::HomeWorkload;

  void Setup(Recorder& recorder) override {
    Build(core::OrchestratorOptions{}, recorder);
    core::PipelineSpec spec = AppSpec("fitness");
    spec.source.fps = 30;
    core::Orchestrator::DeployArgs args;
    args.workload =
        LoopedWorkout(RepeatsFor(params_.window_vsec, kWorkoutPeriod, 10));
    args.seed = params_.seed;
    args.placement.policy = core::PlacementPolicy::kCoLocate;
    Deploy("fitness", std::move(spec), std::move(args), recorder);
  }
};

/// Fitness (EdgeEye single-device baseline, frames shipped by value),
/// gesture and interactive fall with a deadline, all at 20 FPS on one
/// shared pose_detector replica behind the serving layer.
class SharedHome : public HomeWorkload {
 public:
  using HomeWorkload::HomeWorkload;

  void Setup(Recorder& recorder) override {
    core::OrchestratorOptions options;
    options.serving.enabled = true;
    // At the 3 ms default window the background fitness pipeline locks
    // into one of two phase regimes against the other two (5.4 or 7.3
    // FPS) depending on the seed, and the latency tail follows it
    // (p99 149 or 204 ms; spread over ten seeds 0.31). A 10 ms window
    // settles every seed into one regime.
    options.serving.scheduler.batch_window = Duration::Millis(10);
    Build(options, recorder);
    hub_ = std::make_shared<apps::IoTHub>();
    alerts_ = std::make_shared<apps::fall::AlertLog>();
    sim::Simulator* sim = &cluster_->simulator();
    const double window = params_.window_vsec;

    core::PipelineSpec fitness = AppSpec("fitness");
    fitness.source.fps = 20;
    core::Orchestrator::DeployArgs fitness_args;
    fitness_args.workload =
        LoopedWorkout(RepeatsFor(window, kWorkoutPeriod, 10));
    fitness_args.seed = params_.seed;
    fitness_args.placement.policy = core::PlacementPolicy::kSingleDevice;
    Deploy("fitness", std::move(fitness), std::move(fitness_args), recorder);

    core::PipelineSpec gesture = AppSpec("gesture");
    gesture.source.fps = 20;
    core::Orchestrator::DeployArgs gesture_args =
        apps::gesture::MakeDeployArgs(*hub_, sim);
    gesture_args.workload = GestureLoop(RepeatsFor(window, kGesturePeriod, 10));
    gesture_args.seed = params_.seed + 1;
    gesture_args.placement.policy = core::PlacementPolicy::kCoLocate;
    Deploy("gesture", std::move(gesture), std::move(gesture_args), recorder);

    core::PipelineSpec fall = AppSpec("fall");
    fall.source.fps = 20;
    fall.deadline_ms = kFallDeadlineMs;
    core::Orchestrator::DeployArgs fall_args =
        apps::fall::MakeDeployArgs(*alerts_, sim);
    fall_args.workload = FallLoop(RepeatsFor(window, kFallPeriod, 10));
    fall_args.seed = params_.seed + 2;
    fall_args.placement.policy = core::PlacementPolicy::kCoLocate;
    Deploy("fall", std::move(fall), std::move(fall_args), recorder);
  }

 private:
  /// Tight enough that the serving layer sheds fall frames throughout
  /// the window (about 2% of all operations), not only at warm-up.
  static constexpr double kFallDeadlineMs = 150;
};

/// Tens of homes on one simulator, fitness at 10 FPS on 160×120 frames
/// (the smallest size at which pose detection still counts reps),
/// periodic cloud offload, and a rotating quarter of the homes
/// hibernated and woken every churn period.
class FleetChurn : public Workload {
 public:
  explicit FleetChurn(const Params& params) : params_(params) {}
  ~FleetChurn() override { managers_.clear(); }

  TimePoint aligned_at() const override { return aligned_at_; }
  void set_align_target(TimePoint t) override { align_target_ = t; }

  LifecycleTally lifecycle() const override {
    LifecycleTally sum;
    for (const LifecycleTally& t : tally_) {
      sum.hibernations += t.hibernations;
      sum.hibernate_failures += t.hibernate_failures;
      sum.written_off += t.written_off;
      sum.wakes_requested += t.wakes_requested;
      sum.wakes_done += t.wakes_done;
      sum.wakes_failed += t.wakes_failed;
      sum.wake_ms.insert(sum.wake_ms.end(), t.wake_ms.begin(), t.wake_ms.end());
      sum.released_module_events += t.released_module_events;
    }
    return sum;
  }

  void Setup(Recorder& recorder) override {
    fleet::FleetOptions options;
    options.homes = 0;
    options.seed = params_.seed;
    options.orchestrator.trace_retention = kTraceRetention;
    options.enable_cloud = true;
    options.cloud.slots = std::max(2, homes() / 4);
    options.cloud.speed = 4.0;
    options.parallel = params_.parallel;
    options.parallel_options.shards = 4;
    options.parallel_options.threads = params_.threads;
    fleet_ = std::make_unique<fleet::Fleet>(options);
    tally_.resize(static_cast<size_t>(homes()));
    TrainModels(fleet_->models(), recorder);

    const int repeats =
        RepeatsFor(params_.window_vsec, kWorkoutPeriod, 2.5 * homes());
    const media::MotionScript workout = LoopedWorkout(repeats);
    for (int id = 0; id < homes(); ++id) {
      fleet::Home& home = fleet_->AddHome();
      core::PipelineSpec spec = AppSpec("fitness");
      spec.source.fps = 10;
      spec.source.width = kThumbWidth;
      spec.source.height = kThumbHeight;
      core::Orchestrator::DeployArgs args;
      args.workload = workout;
      args.seed = fleet::HomeSeed(params_.seed, id);
      args.placement.policy = core::PlacementPolicy::kCoLocate;
      Pipe pipe;
      pipe.home = id;
      pipe.app = "fitness";
      pipe.script = workout;
      pipe.scene.width = kThumbWidth;
      pipe.scene.height = kThumbHeight;
      pipe.source_seed = args.seed;
      {
        ScopedSpan span(recorder, "core.Deploy", "setup");
        pipe.deployment = Must(
            home.orchestrator->Deploy(std::move(spec), std::move(args)),
            "deploy " + home.name);
      }
      home.pipelines.push_back(pipe.deployment);
      pipes_.push_back(std::move(pipe));

      lifecycle::HibernationOptions lifecycle_options;
      lifecycle_options.auto_hibernate = false;
      managers_.push_back(std::make_unique<lifecycle::HibernationManager>(
          home.orchestrator.get(), lifecycle_options));
    }
    // Deploys pump the clock (serially on the sequential engine, per
    // shard on the parallel one). Bring every home to one whole-second
    // fence so all of them start from the same absolute time.
    TimePoint latest = fleet_->simulator().Now();
    for (int id = 0; id < homes(); ++id) {
      latest = std::max(latest, fleet_->home_simulator(id).Now());
    }
    TimePoint target = TimePoint::FromMicros(
        static_cast<int64_t>(std::ceil(latest.seconds() + 2.0)) * 1000000);
    if (align_target_ > target) target = align_target_;
    fleet_->RunFor(target - fleet_->simulator().Now());
    aligned_at_ = target;
  }

  void Start(Recorder& recorder) override {
    for (int id = 0; id < homes(); ++id) {
      ScheduleOffload(id, recorder);
      ScheduleChurn(id, 1, recorder);
    }
    fleet_->StartAll();
  }

  void Advance(Duration slice) override { fleet_->RunFor(slice); }

  std::vector<sim::Simulator*> simulators() override {
    if (fleet_->parallel_engine() != nullptr) return {};
    return {&fleet_->simulator()};
  }
  std::vector<core::Orchestrator*> orchestrators() override {
    std::vector<core::Orchestrator*> out;
    for (int id = 0; id < fleet_->size(); ++id) {
      out.push_back(fleet_->home(id).orchestrator.get());
    }
    return out;
  }
  modelreg::ModelRegistry& models() override { return fleet_->models(); }
  fleet::Fleet* fleet() override { return fleet_.get(); }

 private:
  static constexpr int kThumbWidth = 160;
  static constexpr int kThumbHeight = 120;
  static constexpr int kGroups = 4;

  int homes() const { return params_.tiny ? 8 : 32; }
  Duration churn_period() const {
    return Duration::Seconds(params_.tiny ? 1.0 : 2.0);
  }

  void ScheduleOffload(int id, Recorder& recorder) {
    auto tick = std::make_shared<std::function<void()>>();
    sim::Simulator& sim = fleet_->home_simulator(id);
    *tick = [this, id, tick, &sim, &recorder] {
      {
        ScopedSpan span(recorder, "fleet.CloudSubmit", "window");
        fleet_->CloudSubmit(id, Duration::Millis(30));
      }
      sim.After(Duration::Millis(250), *tick);
    };
    sim.After(Duration::Millis(250), *tick);
  }

  /// Home `id` sleeps at churn ticks k with k % 4 == id % 4 and is
  /// woken at the next tick, so a quarter of the fleet is asleep at a
  /// time. Events live on the home's own simulator (its shard on the
  /// parallel engine) and touch only that home.
  void ScheduleChurn(int id, int tick_index, Recorder& recorder) {
    sim::Simulator& sim = fleet_->home_simulator(id);
    sim.After(churn_period(), [this, id, tick_index, &recorder] {
      const auto index = static_cast<size_t>(id);
      core::PipelineDeployment* pipeline = pipes_[index].deployment;
      lifecycle::HibernationManager& manager = *managers_[index];
      // Per-home tally: on the parallel engine homes run on different
      // threads.
      LifecycleTally& tally = tally_[index];
      if (pipeline->hibernated()) {
        ++tally.wakes_requested;
        sim::Simulator& home_sim = fleet_->home_simulator(id);
        const TimePoint asked = home_sim.Now();
        ScopedSpan span(recorder, "lifecycle.RequestWake", "window");
        manager.RequestWake(pipeline->spec().name,
                            [&tally, asked, &home_sim](const Status& status) {
                              if (status.ok()) {
                                ++tally.wakes_done;
                                tally.wake_ms.push_back(
                                    (home_sim.Now() - asked).millis());
                              } else {
                                ++tally.wakes_failed;
                              }
                            });
      } else if (tick_index % kGroups == id % kGroups) {
        for (const auto& module : pipeline->modules()) {
          tally.released_module_events += module->stats().events;
        }
        const bool in_flight = pipeline->camera().has_outstanding();
        ScopedSpan span(recorder, "lifecycle.Hibernate", "window");
        if (manager.Hibernate(pipeline).ok()) {
          ++tally.hibernations;
          if (in_flight) ++tally.written_off;
        } else {
          ++tally.hibernate_failures;
        }
      }
      ScheduleChurn(id, tick_index + 1, recorder);
    });
  }

  Params params_;
  std::unique_ptr<fleet::Fleet> fleet_;
  std::vector<LifecycleTally> tally_;
  TimePoint aligned_at_;
  TimePoint align_target_;
};

}  // namespace

media::MotionScript LoopedWorkout(int repeats) {
  return Repeat(media::DefaultWorkoutScript().segments(), repeats);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper-home", "shared-home",
                                                 "fleet-churn"};
  return names;
}

double SliceVsec(const std::string& workload) {
  if (workload == "paper-home") return 0.5;
  if (workload == "shared-home") return 0.25;
  return 0.1;
}

double VsecPerWallSecond(const std::string& workload) {
  if (workload == "paper-home") return 14.0;
  if (workload == "shared-home") return 7.0;
  return 1.4;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Params& params) {
  if (name == "paper-home") return std::make_unique<PaperHome>(params);
  if (name == "shared-home") return std::make_unique<SharedHome>(params);
  if (name == "fleet-churn") return std::make_unique<FleetChurn>(params);
  return nullptr;
}

}  // namespace perfbench
