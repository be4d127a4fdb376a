// Tier-1 behaviour digest: a 64-bit FNV-1a over everything a run
// observably produces in virtual time — per-frame traces, module
// globals, placement (device, port, epoch) and app outputs — for the
// scenarios that exercise every way a module runtime is placed:
// deploy, live migration, failure restore and hibernation wake, plus a
// small fleet on both sim engines.
//
// The expected digests are checked in. A change that alters any of
// them changes behaviour; one that changes behaviour on purpose
// re-derives them in one visible step (run with VP_DIGEST_PRINT=1 to
// print the values) and says why in CHANGES.md.
//
// The seeds are fixed and VP_TEST_SEED is deliberately ignored: an
// expected digest only means something for the seed it was derived
// from. Seed variety is the fault-injection suites' job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "apps/fall.hpp"
#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "core/orchestrator.hpp"
#include "core/self_healing.hpp"
#include "fleet/fleet.hpp"
#include "json/write.hpp"
#include "lifecycle/hibernation.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_injector.hpp"

namespace vp {
namespace {

uint64_t Fnv1a(const std::string& text,
               uint64_t hash = 1469598103934665603ULL) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Virtual-time fingerprint of one pipeline. Times are relative to the
/// first captured frame, so a uniform clock shift (a pipeline started
/// later) leaves the digest unchanged.
std::string PipeText(const core::PipelineDeployment& d) {
  const core::PipelineMetrics& m = d.metrics();
  std::ostringstream os;
  os << "pipe=" << d.spec().name << " captured=" << m.frames_captured()
     << " completed=" << m.frames_completed()
     << " abandoned=" << m.frames_abandoned()
     << " lost=" << m.frames_lost_to_failure()
     << " restored=" << m.checkpoints_restored()
     << " stale=" << m.checkpoints_rejected_stale()
     << " hibernated=" << d.hibernated() << "\n";
  TimePoint origin;
  bool have_origin = false;
  for (const auto& [seq, trace] : m.traces()) {
    if (!have_origin) {
      origin = trace.capture;
      have_origin = true;
    }
    os << seq << " c=" << (trace.capture - origin).micros();
    if (trace.completed.has_value()) {
      os << " e2e=" << (*trace.completed - trace.capture).micros();
    }
    for (const auto& [module, span] : trace.stages) {
      os << " " << module << "@" << (span.start - trace.capture).micros()
         << "+" << span.duration().micros();
    }
    os << "\n";
  }
  for (const core::ModuleSpec& spec : d.spec().modules) {
    os << spec.name << " on " << d.plan().module_device.at(spec.name)
       << " epoch=" << d.module_epoch(spec.name);
    if (auto address = d.ModuleAddress(spec.name); address.ok()) {
      os << " port=" << address->port;
    }
    os << "\n";
  }
  std::vector<std::pair<std::string, std::string>> globals;
  if (d.hibernated()) {
    for (const auto& [module, checkpoint] : d.hibernation_checkpoints()) {
      globals.emplace_back(module, json::Write(checkpoint.state));
    }
  } else {
    for (const auto& runtime : d.modules()) {
      globals.emplace_back(runtime->name(),
                           json::Write(runtime->context().SnapshotState()));
    }
  }
  std::sort(globals.begin(), globals.end());
  for (const auto& [module, state] : globals) {
    os << module << ":" << state << "\n";
  }
  return os.str();
}

std::string IoTText(const apps::IoTHub& hub) {
  std::ostringstream os;
  for (const auto& c : hub.log()) {
    os << "iot " << c.when.micros() << " " << c.device << " " << c.action
       << "\n";
  }
  return os.str();
}

std::string AlertText(const apps::fall::AlertLog& log) {
  std::ostringstream os;
  for (const auto& a : log.alerts()) os << "alert " << a.when.micros() << "\n";
  return os.str();
}

/// Compare against the checked-in value; VP_DIGEST_PRINT=1 prints it.
void ExpectDigest(const std::string& scenario, const std::string& text,
                  const char* expected) {
  const std::string actual = Hex(Fnv1a(text));
  if (std::getenv("VP_DIGEST_PRINT") != nullptr) {
    std::printf("digest %-20s %s\n", scenario.c_str(), actual.c_str());
  }
  EXPECT_EQ(actual, expected) << scenario << " digest changed; trace:\n"
                              << text.substr(0, 2000);
}

core::Orchestrator::DeployArgs FitnessArgs() {
  core::Orchestrator::DeployArgs args;
  args.workload = apps::fitness::Workout();
  return args;
}

core::PipelineDeployment* DeployFitness(core::Orchestrator& orchestrator) {
  auto spec = apps::fitness::Spec();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto deployment = orchestrator.Deploy(std::move(*spec), FitnessArgs());
  EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
  return deployment.ok() ? *deployment : nullptr;
}

// ------------------------------------------------------------ apps

TEST(Digest, Fitness) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  core::PipelineDeployment* pipeline = DeployFitness(orchestrator);
  ASSERT_NE(pipeline, nullptr);
  pipeline->Start();
  orchestrator.RunFor(Duration::Seconds(12));
  ExpectDigest("fitness", PipeText(*pipeline), "85da81f0d1ea53ae");
}

TEST(Digest, Gesture) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  apps::IoTHub hub;
  auto spec = apps::gesture::Spec();
  ASSERT_TRUE(spec.ok());
  auto deployment = orchestrator.Deploy(
      std::move(*spec),
      apps::gesture::MakeDeployArgs(hub, &cluster->simulator()));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(14));
  ExpectDigest("gesture", PipeText(**deployment) + IoTText(hub),
               "ed60c480395d9afc");
}

TEST(Digest, Fall) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  apps::fall::AlertLog log;
  auto spec = apps::fall::Spec();
  ASSERT_TRUE(spec.ok());
  auto deployment = orchestrator.Deploy(
      std::move(*spec),
      apps::fall::MakeDeployArgs(log, &cluster->simulator()));
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();
  (*deployment)->Start();
  orchestrator.RunFor(Duration::Seconds(20));
  ExpectDigest("fall", PipeText(**deployment) + AlertText(log),
               "da17b92f9ad63ea4");
}

TEST(Digest, TwoPipelinesShareThePoseService) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  apps::IoTHub hub;
  core::PipelineDeployment* fitness = DeployFitness(orchestrator);
  ASSERT_NE(fitness, nullptr);
  auto spec = apps::gesture::Spec();
  ASSERT_TRUE(spec.ok());
  auto gesture = orchestrator.Deploy(
      std::move(*spec),
      apps::gesture::MakeDeployArgs(hub, &cluster->simulator()));
  ASSERT_TRUE(gesture.ok()) << gesture.status().ToString();
  orchestrator.StartAll();
  orchestrator.RunFor(Duration::Seconds(10));
  ExpectDigest("shared",
               PipeText(*fitness) + PipeText(**gesture) + IoTText(hub),
               "6dafb156ad9b4a90");
}

// ----------------------------------------------- relocation paths

TEST(Digest, FitnessWithMidRunMigration) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  core::PipelineDeployment* pipeline = DeployFitness(orchestrator);
  ASSERT_NE(pipeline, nullptr);
  pipeline->Start();
  orchestrator.RunFor(Duration::Seconds(6));
  ASSERT_TRUE(
      orchestrator.MigrateModule(*pipeline, "rep_counter_module", "tv").ok());
  orchestrator.RunFor(Duration::Seconds(6));
  ExpectDigest("migration", PipeText(*pipeline), "7ed4a19d7bedb46d");
}

TEST(Digest, DeviceCrashHealedByRestore) {
  auto cluster = sim::MakeExtendedTestbed(42);
  core::OrchestratorOptions options;
  options.seed = 42;
  core::Orchestrator orchestrator(cluster.get(), options);
  core::PipelineDeployment* pipeline = DeployFitness(orchestrator);
  ASSERT_NE(pipeline, nullptr);
  sim::FaultInjector injector(&cluster->simulator(), &cluster->network(), 42);
  orchestrator.RegisterReplicasForFaults(injector);
  orchestrator.RegisterDevicesForFaults(injector);
  core::SelfHealingOptions healing;
  healing.detector.heartbeat_interval = Duration::Millis(100);
  healing.detector.suspect_after = Duration::Millis(250);
  healing.detector.suspicion_window = Duration::Millis(400);
  healing.detector.controller_device = "tv";
  core::SelfHealer healer(&orchestrator, healing);
  ASSERT_TRUE(healer.Start().ok());
  pipeline->Start();
  ASSERT_TRUE(injector
                  .ScheduleDeviceCrash("desktop",
                                       TimePoint() + Duration::Seconds(6),
                                       Duration::Zero())
                  .ok());
  orchestrator.RunFor(Duration::Seconds(14));
  ASSERT_EQ(pipeline->metrics().recoveries(), 1u);
  ExpectDigest("restore", PipeText(*pipeline), "f9df6151ab5b7ce0");
}

/// Run fitness, hibernate it through the lifecycle manager, wake it
/// directly (cold, or from the manager's warm pool) and run on.
std::string HibernateWakeText(bool pooled) {
  auto cluster = sim::MakeHomeTestbed();
  core::Orchestrator orchestrator(cluster.get());
  core::PipelineDeployment* pipeline = DeployFitness(orchestrator);
  if (pipeline == nullptr) return "";
  lifecycle::HibernationOptions options;
  options.auto_hibernate = false;
  // The wake below is direct, not a doorbell: keep the doorbells unarmed.
  options.doorbell_grace = Duration::Seconds(3600);
  lifecycle::HibernationManager manager(&orchestrator, options);
  pipeline->Start();
  orchestrator.RunFor(Duration::Seconds(6));
  EXPECT_TRUE(manager.Hibernate(pipeline).ok());
  orchestrator.RunFor(Duration::Seconds(2));
  const std::string asleep = PipeText(*pipeline);
  const Status woken = orchestrator.WakePipeline(
      pipeline, pooled ? manager.MakeContextProvider() : nullptr);
  EXPECT_TRUE(woken.ok()) << woken.ToString();
  orchestrator.RunFor(Duration::Seconds(6));
  EXPECT_EQ(manager.pool().stats().hits, pooled ? 4u : 0u);
  return asleep + PipeText(*pipeline);
}

TEST(Digest, HibernateWakeCold) {
  ExpectDigest("wake-cold", HibernateWakeText(/*pooled=*/false),
               "cad72debbc87e36c");
}

TEST(Digest, HibernateWakePooled) {
  ExpectDigest("wake-pooled", HibernateWakeText(/*pooled=*/true),
               "cad72debbc87e36c");
}

// ------------------------------------------------------------ fleet

std::string FleetText(bool parallel) {
  fleet::FleetOptions options;
  options.homes = 4;
  options.seed = 11;
  options.orchestrator.serving.enabled = true;
  options.parallel = parallel;
  options.parallel_options.shards = 4;
  options.parallel_options.threads = 2;
  fleet::Fleet fleet(options);
  for (int id = 0; id < fleet.size(); ++id) {
    auto spec = apps::fitness::Spec();
    if (!spec.ok()) return "";
    spec->source.fps = 10;
    core::Orchestrator::DeployArgs args = FitnessArgs();
    args.placement.policy = core::PlacementPolicy::kCoLocate;
    auto deployment =
        fleet.home(id).orchestrator->Deploy(std::move(*spec), std::move(args));
    EXPECT_TRUE(deployment.ok()) << deployment.status().ToString();
    if (!deployment.ok()) return "";
    fleet.home(id).pipelines.push_back(*deployment);
  }
  // Let deploy-time work settle before the cameras start (as in
  // test_sim_parallel).
  fleet.RunFor(Duration::Seconds(2));
  fleet.StartAll();
  fleet.RunFor(Duration::Seconds(5));
  std::string text;
  for (int id = 0; id < fleet.size(); ++id) {
    text += "home" + std::to_string(id) + "\n" +
            PipeText(*fleet.home(id).pipelines[0]);
  }
  return text;
}

TEST(Digest, FleetSequentialEngine) {
  ExpectDigest("fleet-sequential", FleetText(/*parallel=*/false),
               "4266123277d0351f");
}

TEST(Digest, FleetParallelEngine) {
  ExpectDigest("fleet-parallel", FleetText(/*parallel=*/true),
               "4266123277d0351f");
}

}  // namespace
}  // namespace vp
