// Per-layer metrics of a traced run.
//
// Layers are measured from outside, through their public functions.
// Spans recorded around the benchmark's own calls (TrainOrGet, Deploy,
// Hibernate, RequestWake, CloudSubmit, each RunFor slice) give the
// set-up and lifecycle layers directly. The lower layers are priced
// after the window by replay probes that call each one on the inputs
// the run consumed; each per-call time is multiplied by the run's own
// public counts to attribute the window's wall time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "apps/fitness.hpp"
#include "apps/gesture.hpp"
#include "bench.hpp"
#include "cv/pose_detector.hpp"
#include "json/parse.hpp"
#include "json/write.hpp"
#include "media/codec.hpp"
#include "media/video_source.hpp"
#include "net/message.hpp"
#include "script/context.hpp"
#include "script/convert.hpp"
#include "script/program_cache.hpp"

namespace perfbench {

void Recorder::Add(const std::string& name, const std::string& category,
                   int64_t start_us, int64_t end_us) {
  if (enabled_) spans_.push_back({name, category, start_us, end_us});
}

double Recorder::TotalMs(const std::string& name) const {
  int64_t us = 0;
  for (const Span& s : spans_) {
    if (s.name == name) us += s.end_us - s.start_us;
  }
  return static_cast<double>(us) / 1000.0;
}

std::vector<double> Recorder::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_us - s.start_us));
  }
  return out;
}

json::Value Recorder::ChromeTrace() const {
  json::Value::Array events;
  json::Value meta = json::Value::MakeObject();
  meta["name"] = json::Value("process_name");
  meta["ph"] = json::Value("M");
  meta["pid"] = json::Value(1);
  json::Value args = json::Value::MakeObject();
  args["name"] = json::Value("perfbench (wall clock)");
  meta["args"] = std::move(args);
  events.push_back(std::move(meta));
  for (const Span& s : spans_) {
    json::Value event = json::Value::MakeObject();
    event["name"] = json::Value(s.name);
    event["cat"] = json::Value(s.category);
    event["ph"] = json::Value("X");
    event["ts"] = json::Value(static_cast<double>(s.start_us));
    event["dur"] = json::Value(static_cast<double>(s.end_us - s.start_us));
    event["pid"] = json::Value(1);
    event["tid"] = json::Value(1);
    events.push_back(std::move(event));
  }
  json::Value doc = json::Value::MakeObject();
  doc["traceEvents"] = json::Value(std::move(events));
  doc["displayTimeUnit"] = json::Value("ms");
  return doc;
}

namespace {

/// Wall µs per call of `fn`, run `calls` times, recorded as one span.
template <typename Fn>
double PerCallUs(Recorder& recorder, const std::string& span, int calls, Fn&& fn) {
  const int64_t start = recorder.NowUs();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < calls; ++i) fn(i);
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  recorder.Add(span, "replay", start, recorder.NowUs());
  return calls > 0 ? us / calls : 0;
}

/// Frame services: a call that names a frame_id ships the frame when
/// the service runs on another device. Module edges carrying a frame
/// (fitness only) do the same.
const std::set<std::string> kFrameServices = {"pose_detector", "display"};
const std::map<std::string, std::vector<std::pair<std::string, std::string>>>
    kFrameEdges = {{"fitness",
                    {{"pose_detection_module", "activity_detector_module"},
                     {"activity_detector_module", "display_module"}}}};

/// Frame decodes beyond the camera's own hop, per completed frame.
int RemoteFrameHops(const Pipe& pipe) {
  const core::DeploymentPlan& plan = pipe.deployment->plan();
  int hops = 0;
  for (const core::ModuleSpec& module : pipe.deployment->spec().modules) {
    auto at = plan.module_device.find(module.name);
    if (at == plan.module_device.end()) continue;
    for (const std::string& service : module.services) {
      auto host = plan.service_device.find(service);
      if (kFrameServices.count(service) != 0 &&
          host != plan.service_device.end() && host->second != at->second) {
        ++hops;
      }
    }
  }
  auto edges = kFrameEdges.find(pipe.app);
  if (edges != kFrameEdges.end()) {
    for (const auto& [from, to] : edges->second) {
      if (plan.module_device.at(from) != plan.module_device.at(to)) ++hops;
    }
  }
  return hops;
}

/// Stub host functions: canned service replies, no-op side effects.
/// Replies are converted to script values once, so a dispatch probe
/// prices the handler, not the marshaling.
void RegisterStubs(script::Context& context,
                   const std::map<std::string, script::Value>& replies) {
  context.RegisterHostFunction(
      "call_service",
      [&replies](std::vector<script::Value>& args,
                 script::Interpreter&) -> Result<script::Value> {
        auto it = args.empty() ? replies.end()
                               : replies.find(args[0].ToDisplayString());
        return it == replies.end() ? script::Value::MakeObject() : it->second;
      });
  for (const char* name : {"call_module", "iot_command", "raise_alert"}) {
    context.RegisterHostFunction(
        name, [](std::vector<script::Value>&,
                 script::Interpreter&) -> Result<script::Value> {
          return script::Value();
        });
  }
}

json::Value ParseOrDie(const std::string& text) {
  auto parsed = json::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: canned json: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*parsed);
}

struct ScriptProbe {
  double dispatch_us = 0;
  double load_cold_us = 0;
  double load_warm_us = 0;
};

/// Context::Load cold (empty program cache) and warm, and
/// Context::Call of every app module handler on a representative
/// message, for the apps the workload runs.
ScriptProbe ProbeScripts(const std::set<std::string>& apps,
                         const json::Value& pose, Recorder& recorder) {
  std::map<std::string, script::Value> replies;
  replies["pose_detector"] = script::JsonToScript(pose);
  replies["activity_classifier"] = script::JsonToScript(
      ParseOrDie(R"({"label": "squat", "confidence": 0.9})"));
  replies["rep_counter"] = script::JsonToScript(
      ParseOrDie(R"({"reps": 3, "state": {"k": 2, "phase": 1}})"));
  replies["fall_detector"] = script::JsonToScript(ParseOrDie(
      R"({"fallen": false, "fallen_fraction": 0, "torso_angle_deg": 8})"));
  json::Value message = json::Value::MakeObject();
  message["frame_id"] = json::Value(1);
  message["seq"] = json::Value(1);
  message["pose"] = pose;
  message["activity"] = json::Value("squat");
  message["confidence"] = json::Value(0.9);
  message["gesture"] = json::Value("none");

  std::vector<std::string> sources;
  for (const std::string& app : apps) {
    auto spec = app == "fitness"   ? apps::fitness::Spec()
                : app == "gesture" ? apps::gesture::Spec()
                                   : apps::fall::Spec();
    for (const core::ModuleSpec& module : spec->modules) {
      if (module.type == core::ModuleType::kScript) sources.push_back(module.code);
    }
  }
  ScriptProbe probe;
  constexpr int kLoads = 20;
  constexpr int kCalls = 2000;
  double cold = 0, warm = 0, dispatch = 0;
  for (const std::string& source : sources) {
    cold += PerCallUs(recorder, "script.Load (cold)", kLoads, [&](int) {
      script::ProgramCache::Global().Clear();
      script::Context context;
      RegisterStubs(context, replies);
      (void)context.Load(source);
    });
    warm += PerCallUs(recorder, "script.Load (warm)", kLoads, [&](int) {
      script::Context context;
      RegisterStubs(context, replies);
      (void)context.Load(source);
    });
    script::Context context;
    RegisterStubs(context, replies);
    if (!context.Load(source).ok()) continue;
    const script::Value arg = script::JsonToScript(message);
    dispatch += PerCallUs(recorder, "script.Call", kCalls, [&](int) {
      (void)context.Call("event_received", {arg});
    });
  }
  const double n = std::max(1.0, static_cast<double>(sources.size()));
  probe.dispatch_us = dispatch / n;
  probe.load_cold_us = cold / n;
  probe.load_warm_us = warm / n;
  return probe;
}

/// Load probes above include context construction; subtract it so
/// the figures price Context::Load alone.
double ContextConstructUs(Recorder& recorder) {
  std::map<std::string, script::Value> none;
  return PerCallUs(recorder, "script.Context()", 200, [&](int) {
    script::Context context;
    RegisterStubs(context, none);
  });
}

/// The DES core alone: 64 self-rescheduling event chains on a fresh
/// simulator (a steady heap, like a running home), empty bodies.
double EmptyEventNs(Recorder& recorder) {
  constexpr int kChains = 64;
  constexpr int kEvents = 400000;
  sim::Simulator simulator;
  int fired = 0;
  std::function<void()> tick = [&] {
    if (++fired + kChains <= kEvents) simulator.After(Duration::Micros(100), tick);
  };
  const double us = PerCallUs(recorder, "sim.empty_events", 1, [&](int) {
    for (int i = 0; i < kChains; ++i) simulator.After(Duration::Micros(i), tick);
    simulator.RunUntilIdle();
  });
  return 1000.0 * us / fired;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddLayerMetrics(Workload& workload, const std::string& name,
                     const Window& window, Recorder& recorder, Metrics& out) {
  auto add = [&out](const std::string& metric, double value, const char* unit) {
    out.push_back({metric, {value, unit}});
  };
  const script::ProgramCacheStats cache = script::ProgramCache::Global().stats();
  const double frames = static_cast<double>(std::max<uint64_t>(1, window.frames_completed));

  // ---- public counters of the run ----------------------------------
  uint64_t rendered = 0, source_drops = 0, retries = 0, timeouts = 0;
  double remote_decodes = 0;
  std::set<std::string> apps;
  for (const Pipe& pipe : workload.pipes()) {
    const core::PipelineMetrics& m = pipe.deployment->metrics();
    rendered += m.frames_captured();
    source_drops += m.source_drops();
    retries += m.retries();
    timeouts += m.call_timeouts();
    remote_decodes += RemoteFrameHops(pipe) * static_cast<double>(m.frames_completed());
    apps.insert(pipe.app);
  }
  uint64_t requests = 0, errors = 0, pose_calls = 0, evictions = 0;
  double busy_ms = 0;
  uint64_t messages = 0, bytes = 0, drops = 0;
  double queue_ms = 0;
  uint64_t queue_samples = 0, dispatched = 0, batches = 0, shed = 0;
  for (core::Orchestrator* orch : workload.orchestrators()) {
    for (services::ServiceInstance* replica : orch->registry().AllReplicas()) {
      requests += replica->stats().requests;
      errors += replica->stats().errors;
      busy_ms += replica->stats().busy.millis();
      if (replica->service_name() == "pose_detector") {
        pose_calls += replica->stats().requests;
      }
    }
    const sim::NetworkStats& net = orch->cluster().network().stats();
    messages += net.messages;
    bytes += net.bytes;
    drops += net.device_drops + net.partition_drops;
    for (const std::string& device : orch->cluster().device_names()) {
      evictions += orch->store(device).evictions();
    }
    for (const auto& [key, scheduler] : orch->schedulers()) {
      const serving::SchedulerStats& s = scheduler->stats();
      queue_ms += s.queue_delay_total.millis();
      queue_samples += s.queue_delay_samples;
      dispatched += s.dispatched;
      batches += s.batches;
      shed += s.shed_deadline + s.shed_stale;
    }
  }
  const uint64_t module_events = ModuleEvents(workload) - window.module_events_before;

  // ---- replay probes on the run's own inputs -----------------------
  double render_us = 0, encode_us = 0, decode_us = 0, pose_us = 0;
  double encoded_bytes = 0;
  json::Value pose_json;
  {
    double render_total = 0, encode_total = 0, decode_total = 0, pose_total = 0;
    uint64_t n = 0;
    const int64_t start = recorder.NowUs();
    for (const Pipe& pipe : workload.pipes()) {
      media::SyntheticVideoSource source(pipe.script,
                                         pipe.deployment->spec().source.fps,
                                         pipe.scene, pipe.source_seed);
      for (const auto& [seq, trace] : pipe.deployment->metrics().traces()) {
        const Clock::time_point t0 = Clock::now();
        media::Frame frame = source.CaptureFrame(seq);
        const Clock::time_point t1 = Clock::now();
        Bytes encoded = media::EncodeFrame(frame);
        const Clock::time_point t2 = Clock::now();
        auto decoded = media::DecodeFrame(encoded);
        const Clock::time_point t3 = Clock::now();
        cv::DetectedPose pose = cv::DetectPose(decoded.ok() ? decoded->image : frame.image);
        const Clock::time_point t4 = Clock::now();
        render_total += Seconds(t0, t1);
        encode_total += Seconds(t1, t2);
        decode_total += Seconds(t2, t3);
        pose_total += Seconds(t3, t4);
        encoded_bytes += static_cast<double>(encoded.size());
        if (pose.person_found() || pose_json.is_null()) pose_json = pose.ToJson();
        ++n;
      }
    }
    recorder.Add("replay media+cv", "replay", start, recorder.NowUs());
    const double calls = static_cast<double>(std::max<uint64_t>(1, n));
    render_us = 1e6 * render_total / calls;
    encode_us = 1e6 * encode_total / calls;
    decode_us = 1e6 * decode_total / calls;
    pose_us = 1e6 * pose_total / calls;
    encoded_bytes /= calls;
  }

  // Payloads crossing the fabric: the pose message; frame-carrying
  // messages add the mean encoded frame as a binary part.
  json::Value payload = json::Value::MakeObject();
  payload["frame_id"] = json::Value(1);
  payload["seq"] = json::Value(1);
  payload["pose"] = pose_json;
  double json_write_us = 0;
  const double json_us = PerCallUs(recorder, "json.Write+Parse", 2000, [&](int) {
    const Clock::time_point t0 = Clock::now();
    const std::string text = json::Write(payload);
    json_write_us += std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    (void)json::Parse(text);
  });
  json_write_us /= 2000;
  const double part_bytes =
      messages > 0 ? std::max(0.0, static_cast<double>(bytes) / static_cast<double>(messages) -
                                       static_cast<double>(json::Write(payload).size()))
                   : 0;
  const double codec_us = PerCallUs(recorder, "net.Message::Encode+Decode", 2000, [&](int) {
    net::Message message("request", payload);
    if (part_bytes >= 1) message.AddPart(Bytes(static_cast<size_t>(part_bytes), 7));
    const Bytes wire = message.Encode();
    (void)net::Message::Decode(wire);
  });
  const double marshal_us = PerCallUs(recorder, "script.JsonToScript+ScriptToJson", 2000, [&](int) {
    const script::Value v = script::JsonToScript(payload);
    (void)script::ScriptToJson(v);
  });
  const ScriptProbe scripts = ProbeScripts(apps, pose_json, recorder);
  const double construct_us = ContextConstructUs(recorder);
  const double core_ns = EmptyEventNs(recorder);

  // ---- attribution of the window's wall time -----------------------
  const LifecycleTally tally = workload.lifecycle();
  const double decodes = static_cast<double>(rendered) + remote_decodes;
  std::vector<std::pair<std::string, double>> attributed_us = {
      {"media", render_us * static_cast<double>(rendered) +
                    encode_us * static_cast<double>(rendered) + decode_us * decodes},
      {"cv", pose_us * static_cast<double>(pose_calls)},
      {"script", scripts.dispatch_us * static_cast<double>(module_events) +
                     marshal_us * static_cast<double>(module_events + requests)},
      // Messages travel the simulated network as objects; the one real
      // serialization on that path is the json::Write behind
      // Message::ByteSize (memoized per message).
      {"json", json_write_us * static_cast<double>(messages)},
      {"sim", core_ns / 1000.0 * static_cast<double>(window.events)},
      {"lifecycle", 1000.0 * (recorder.TotalMs("lifecycle.Hibernate") +
                              recorder.TotalMs("lifecycle.RequestWake"))},
      {"fleet", 1000.0 * recorder.TotalMs("fleet.CloudSubmit")},
  };
  const double wall_us = window.wall_s * 1e6;
  double attributed = 0;
  for (const auto& [layer, us] : attributed_us) attributed += us;
  attributed_us.push_back({"core (unattributed)", std::max(0.0, wall_us - attributed)});
  std::sort(attributed_us.begin(), attributed_us.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("attribution of %.2f wall s (%s):\n", window.wall_s, name.c_str());
  for (const auto& [layer, us] : attributed_us) {
    std::printf("  %-22s %10.1f ms  %5.1f%%\n", layer.c_str(), us / 1000.0,
                100.0 * us / wall_us);
  }
  std::printf("  render alone          %10.1f ms  %5.1f%%\n",
              render_us * static_cast<double>(rendered) / 1000.0,
              100.0 * render_us * static_cast<double>(rendered) / wall_us);
  std::printf("attribution largest=%s\n", attributed_us.front().first.c_str());

  // ---- the metrics, in BENCHMARK.json order -------------------------
  add("media.render_us", render_us, "us");
  add("media.encode_us", encode_us, "us");
  add("media.decode_us", decode_us, "us");
  add("media.frames_rendered", static_cast<double>(rendered), "count");
  add("media.encoded_bytes_per_frame", encoded_bytes, "bytes");
  add("media.frame_store_evictions", static_cast<double>(evictions), "count");
  add("cv.pose_us", pose_us, "us");
  add("cv.pose_calls", static_cast<double>(pose_calls), "count");
  add("script.dispatch_us", scripts.dispatch_us, "us");
  add("script.marshal_us", marshal_us, "us");
  add("script.load_cold_us", std::max(0.0, scripts.load_cold_us - construct_us), "us");
  add("script.load_warm_us", std::max(0.0, scripts.load_warm_us - construct_us), "us");
  add("script.events", static_cast<double>(module_events), "count");
  add("script.program_cache_hit_ratio",
      Ratio(static_cast<double>(cache.hits), static_cast<double>(cache.hits + cache.misses)),
      "ratio");
  add("json.roundtrip_us", json_us, "us");
  add("net.message_codec_us", codec_us, "us");
  add("net.messages", static_cast<double>(messages), "count");
  add("net.bytes_per_frame", static_cast<double>(bytes) / frames, "bytes");
  add("net.drops", static_cast<double>(drops), "count");
  add("sim.core_ns_per_event", core_ns, "ns");
  add("sim.wall_us_per_event_p50", Quantile(window.event_wall_us, 0.5), "us");
  add("sim.wall_us_per_event_p99", Quantile(window.event_wall_us, 0.99), "us");
  add("sim.events", static_cast<double>(window.events), "count");
  add("sim.events_per_frame", static_cast<double>(window.events) / frames, "count");
  const double reuses = static_cast<double>(window.alloc_after.pool_reuses -
                                            window.alloc_before.pool_reuses);
  const double allocs = static_cast<double>(window.alloc_after.node_allocs -
                                            window.alloc_before.node_allocs);
  add("sim.pool_reuse_ratio", Ratio(reuses, reuses + allocs), "ratio");
  add("sim.heap_compactions",
      static_cast<double>(window.alloc_after.heap_compactions -
                          window.alloc_before.heap_compactions),
      "count");
  add("services.requests", static_cast<double>(requests), "count");
  add("services.busy_ms_per_frame", busy_ms / frames, "ms");
  add("services.errors", static_cast<double>(errors), "count");
  add("serving.queue_delay_ms",
      Ratio(queue_ms, static_cast<double>(queue_samples)), "ms");
  add("serving.batch_occupancy",
      Ratio(static_cast<double>(dispatched), static_cast<double>(batches)), "count");
  add("serving.shed", static_cast<double>(shed), "count");

  // Fig. 6 bars: virtual p50 of each module's handler span, pooled
  // over every pipeline of that app (0 where the app is absent).
  std::map<std::string, std::vector<double>> stage_ms;
  for (const Pipe& pipe : workload.pipes()) {
    for (const auto& [seq, trace] : pipe.deployment->metrics().traces()) {
      if (!trace.completed.has_value()) continue;
      for (const auto& [module, span] : trace.stages) {
        stage_ms[pipe.deployment->spec().name + "." + module].push_back(
            span.duration().millis());
      }
    }
  }
  for (const char* stage :
       {"fitness.pose_detection_module", "fitness.activity_detector_module",
        "fitness.rep_counter_module", "fitness.display_module",
        "gesture.pose_detection_module", "gesture.gesture_recognition_module",
        "gesture.iot_control_module", "fall_detection.pose_detection_module",
        "fall_detection.fall_monitor_module"}) {
    add(std::string("core.stage_ms.") + stage, Quantile(stage_ms[stage], 0.5), "ms");
  }
  add("core.deploy_ms", recorder.TotalMs("core.Deploy"), "ms");
  add("core.unattributed_us_per_frame", std::max(0.0, wall_us - attributed) / frames, "us");
  add("core.source_drops", static_cast<double>(source_drops), "count");
  add("core.retries", static_cast<double>(retries), "count");
  add("core.call_timeouts", static_cast<double>(timeouts), "count");
  add("modelreg.train_ms", recorder.TotalMs("modelreg.TrainOrGet"), "ms");
  add("modelreg.trainings", static_cast<double>(workload.models().trainings()), "count");
  add("modelreg.dedupe_hits", static_cast<double>(workload.models().dedupe_hits()), "count");

  const std::vector<double> hibernate_us = recorder.DurationsUs("lifecycle.Hibernate");
  double pool_hits = 0, pool_misses = 0;
  for (lifecycle::HibernationManager* manager : workload.hibernation_managers()) {
    pool_hits += static_cast<double>(manager->pool().stats().hits);
    pool_misses += static_cast<double>(manager->pool().stats().misses);
  }
  add("lifecycle.hibernate_us",
      hibernate_us.empty() ? 0.0
                           : std::accumulate(hibernate_us.begin(), hibernate_us.end(), 0.0) /
                                 static_cast<double>(hibernate_us.size()),
      "us");
  add("lifecycle.wake_ms_p50", Quantile(tally.wake_ms, 0.5), "ms");
  add("lifecycle.wakes", static_cast<double>(tally.wakes_done), "count");
  add("lifecycle.wake_failures", static_cast<double>(tally.wakes_failed), "count");
  add("lifecycle.pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses), "ratio");

  fleet::Fleet* fleet = workload.fleet();
  add("fleet.cloud_jobs",
      fleet != nullptr && fleet->cloud() != nullptr
          ? static_cast<double>(fleet->cloud()->served_total())
          : 0.0,
      "count");
  add("fleet.shared_overhead_ratio",
      fleet != nullptr ? Ratio(static_cast<double>(fleet->SharedOverheadEvents()),
                               static_cast<double>(fleet->executed_events()))
                       : 0.0,
      "ratio");

  std::vector<double> hooked, bare;
  for (size_t i = 0; i < window.slice_wall_s.size(); ++i) {
    (window.slice_traced[i] ? hooked : bare).push_back(window.slice_wall_s[i]);
  }
  add("trace.coverage", attributed / wall_us, "ratio");
  add("trace.overhead_ratio", Ratio(Quantile(hooked, 0.5), Quantile(bare, 0.5)), "ratio");
}

}  // namespace perfbench
