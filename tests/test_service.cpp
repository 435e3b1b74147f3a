// api::Service: the warm-state facade. Covers payload parity with the
// underlying library calls, the resident plan cache climbing across
// schedule requests, calibration tables loading exactly once, and the
// version stamp on every payload.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/request.h"
#include "api/service.h"
#include "api/version.h"
#include "calib/interference.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "runtime/scenario_config.h"
#include "util/failpoint.h"
#include "util/json.h"

namespace deeppool::api {
namespace {

// A schedule spec small enough to run in milliseconds but with repeated
// shapes, so the plan cache has something to hit.
sched::ScheduleSpec tiny_schedule() {
  return sched::schedule_spec_from_json(Json::parse(R"({
    "kind": "schedule",
    "name": "service_tiny",
    "workload": {
      "arrival": "fixed", "interval_s": 0.5, "num_jobs": 6, "seed": 3,
      "bg_fraction": 0.5, "min_iterations": 10, "max_iterations": 20,
      "fg_mix": [{"model": "vgg16", "weight": 1.0, "global_batch": 32,
                  "amp_limit": 2.0}],
      "bg_mix": [{"model": "resnet50", "weight": 1.0, "global_batch": 16}]
    },
    "cluster": {"num_gpus": 4, "policy": "burst_lending",
                "util_timeline_bins": 8}
  })"));
}

Json normalized_schedule_payload(Json payload) {
  // The resident cache may only change its own counters, nothing else.
  payload["result"]["fleet"]["plan_cache_hits"] = Json(0);
  payload["result"]["fleet"]["plan_cache_misses"] = Json(0);
  return payload;
}

TEST(Service, ModelsListsTheZooAndStampsVersion) {
  Service service(ServiceOptions{1, nullptr});
  const Response response = service.handle(Request{ModelsRequest{}});
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.op, "models");
  EXPECT_EQ(response.payload.at("version").as_string(), version());
  bool has_vgg = false;
  for (const Json& name : response.payload.at("models").as_array()) {
    if (name.as_string() == "vgg16") has_vgg = true;
  }
  EXPECT_TRUE(has_vgg);
  ASSERT_TRUE(response.service.has_value());
  EXPECT_EQ(response.service->requests, 1);
  EXPECT_EQ(response.service->errors, 0);
}

TEST(Service, PlanPayloadMatchesResolveSpec) {
  runtime::ScenarioSpec spec;
  spec.model = "vgg16";
  spec.seed = 11;
  spec.global_batch = 16;
  spec.config.num_gpus = 4;

  Service service(ServiceOptions{1, nullptr});
  const Response response = service.handle(Request{PlanRequest{spec}});
  ASSERT_TRUE(response.ok);

  Json expected = runtime::resolve_spec(spec).fg_plan->to_json();
  expected["seed"] = Json(static_cast<std::int64_t>(spec.seed));
  expected["version"] = Json(version());
  EXPECT_EQ(response.payload.dump(2), expected.dump(2));
}

TEST(Service, ScheduleHitsTheWarmPlanCacheAcrossRequests) {
  Service service(ServiceOptions{1, nullptr});
  const Request request{ScheduleRequest{tiny_schedule(), ""}};

  const Response first = service.handle(request);
  const Response second = service.handle(request);
  const Response third = service.handle(request);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  ASSERT_TRUE(third.ok);

  // Cumulative service counters climb strictly: the daemon's whole point.
  ASSERT_TRUE(first.service && second.service && third.service);
  EXPECT_GT(first.service->plan_cache_hits, 0);
  EXPECT_GT(second.service->plan_cache_hits, first.service->plan_cache_hits);
  EXPECT_GT(third.service->plan_cache_hits, second.service->plan_cache_hits);
  // Every distinct shape was planned during the first request; afterwards
  // the cache answers everything.
  EXPECT_EQ(second.service->plan_cache_misses,
            first.service->plan_cache_misses);
  EXPECT_EQ(second.payload.at("result").at("fleet").at("plan_cache_misses")
                .as_int(),
            0);

  // The cache must not change the answer itself.
  EXPECT_EQ(normalized_schedule_payload(first.payload).dump(2),
            normalized_schedule_payload(second.payload).dump(2));
  EXPECT_EQ(normalized_schedule_payload(second.payload).dump(2),
            normalized_schedule_payload(third.payload).dump(2));
}

TEST(Service, ConcurrentSchedulesCountOnlyTheirOwnPlanCacheLookups) {
  // Two requests on different fabrics share no plan-cache key, so running
  // them together on one Service cannot change which of their lookups hit.
  sched::ScheduleSpec nvswitch = tiny_schedule();
  sched::ScheduleSpec slow_net = tiny_schedule();
  slow_net.config.network = "100g";
  const Request requests[2] = {
      Request{ScheduleRequest{nvswitch, "", "", ""}},
      Request{ScheduleRequest{slow_net, "", "", ""}}};
  const auto counters = [](const Response& response) {
    const Json& fleet = response.payload.at("result").at("fleet");
    return std::make_pair(fleet.at("plan_cache_hits").as_int(),
                          fleet.at("plan_cache_misses").as_int());
  };
  std::pair<std::int64_t, std::int64_t> alone[2];
  for (int i = 0; i < 2; ++i) {
    Service fresh(ServiceOptions{1, nullptr});
    alone[i] = counters(fresh.handle(requests[i]));
  }

  // Every cold plan sleeps, so each run's lookups land while the other
  // run is between its engine setup and its fleet metrics.
  util::failpoints::configure("plan_cache/resolve=delay(30)");
  Service service(ServiceOptions{2, nullptr});
  Response responses[2];
  std::string errors[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      try {
        util::PoolLease lease = service.leases().acquire(2);
        RequestScope scope(&lease);
        responses[i] = service.handle(requests[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  util::failpoints::clear();

  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(errors[i], "");
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    EXPECT_EQ(counters(responses[i]), alone[i]) << "request " << i;
  }
  EXPECT_EQ(service.plan_cache().misses(), alone[0].second + alone[1].second);
}

TEST(Service, CalibrationTableLoadsOnceAndStaysResident) {
  calib::InterferenceTable table;
  table.set(calib::PairKey{"vgg16", "resnet50", calib::GpuShape{4, 2.0}},
            calib::PairFactors{0.07, 0.9});
  const std::string path =
      testing::TempDir() + "/service_calib_table.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << table.to_json().dump(2) << '\n';
  }

  Service service(ServiceOptions{1, nullptr});
  const Request request{ScheduleRequest{tiny_schedule(), path}};
  const Response first = service.handle(request);
  const Response second = service.handle(request);
  std::remove(path.c_str());

  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_TRUE(first.payload.at("result").at("fleet").at("calibrated")
                  .as_bool());
  // One file, one load — the second request reuses the resident table
  // (the file is already deleted, so a re-read would fail anyway).
  ASSERT_TRUE(second.service.has_value());
  EXPECT_EQ(second.service->calibrations_loaded, 1);
  EXPECT_EQ(normalized_schedule_payload(first.payload).dump(2),
            normalized_schedule_payload(second.payload).dump(2));
}

TEST(Service, MissingCalibrationFileThrowsOneLineError) {
  Service service(ServiceOptions{1, nullptr});
  const Request request{
      ScheduleRequest{tiny_schedule(), "/nonexistent/table.json"}};
  EXPECT_THROW(service.handle(request), std::runtime_error);
  EXPECT_EQ(service.stats().requests, 1);
}

TEST(Service, FreshServicesAnswerByteIdentically) {
  // One-shot CLI parity: the CLI builds a fresh Service per invocation, so
  // any two fresh Services (and hence CLI vs. first serve response) must
  // produce identical payload bytes for the same request.
  const Request request{ScheduleRequest{tiny_schedule(), ""}};
  Service one(ServiceOptions{1, nullptr});
  Service two(ServiceOptions{1, nullptr});
  EXPECT_EQ(one.handle(request).payload.dump(2),
            two.handle(request).payload.dump(2));
}

TEST(Service, ScheduleTracePathWritesSchedulerSpans) {
  const std::string path = testing::TempDir() + "/service_sched_trace.json";
  Service service(ServiceOptions{1, nullptr});
  const Response traced =
      service.handle(Request{ScheduleRequest{tiny_schedule(), "", "", path}});
  ASSERT_TRUE(traced.ok);
  EXPECT_EQ(traced.payload.at("trace_path").as_string(), path);
  EXPECT_GT(traced.payload.at("trace_events").as_int(), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  const Json doc = Json::parse(content);
  const auto& events = doc.at("traceEvents").as_array();
  EXPECT_EQ(static_cast<std::int64_t>(events.size()),
            traced.payload.at("trace_events").as_int());

  // The trace must carry the scheduler's decision stream: instants for
  // arrivals/dispatches/completions, X spans for job residencies, and the
  // event-queue-depth counter series.
  std::map<std::string, int> by_cat;
  int counters = 0;
  for (const Json& ev : events) {
    if (ev.at("ph").as_string() == "C") {
      ++counters;
      EXPECT_EQ(ev.at("name").as_string(), "event_queue_depth");
    } else {
      ++by_cat[ev.at("cat").as_string()];
    }
  }
  EXPECT_GT(by_cat["sched/arrival"], 0);
  EXPECT_GT(by_cat["sched/dispatch"], 0);
  EXPECT_GT(by_cat["sched/complete"], 0);
  EXPECT_GT(by_cat["sched/job"], 0);
  EXPECT_GT(counters, 0);

  // Recording a trace must not change the schedule itself.
  Service untraced_service(ServiceOptions{1, nullptr});
  const Response untraced =
      untraced_service.handle(Request{ScheduleRequest{tiny_schedule(), ""}});
  Json traced_payload = traced.payload;
  traced_payload.as_object().erase("trace_path");
  traced_payload.as_object().erase("trace_events");
  EXPECT_EQ(normalized_schedule_payload(traced_payload).dump(2),
            normalized_schedule_payload(untraced.payload).dump(2));
}

TEST(Service, JobsResolveLikeTheCliFlag) {
  EXPECT_EQ(Service(ServiceOptions{2, nullptr}).jobs(), 2);
  try {
    Service service(ServiceOptions{0, nullptr});
    FAIL() << "jobs 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--jobs must be >= 1 (got 0)");
  }
}

TEST(Service, HandleCollectsARequestScopedSpanTree) {
  Service service(ServiceOptions{1, nullptr});
  const Response response =
      service.handle(Request{ScheduleRequest{tiny_schedule(), ""}});
  ASSERT_TRUE(response.ok);
  const RequestTrace& trace = service.last_request_trace();
  EXPECT_EQ(trace.trace_id, 1u);
  EXPECT_EQ(trace.op, "schedule");
  EXPECT_GT(trace.wall_s, 0.0);
  ASSERT_FALSE(trace.spans.empty());
  // The root span is the op itself; everything else parents into it and
  // closed before the trace was published.
  EXPECT_EQ(trace.spans[0].name, "schedule");
  EXPECT_EQ(trace.spans[0].parent, -1);
  for (const obs::SpanRecord& span : trace.spans) {
    EXPECT_GE(span.dur_s, 0.0) << span.name;
    if (span.id != 0) EXPECT_GE(span.parent, 0) << span.name;
  }
  // The thread-local context must not leak out of handle().
  EXPECT_FALSE(obs::current_context().active());
}

TEST(Service, TraceIdsDrawFromOneMonotonicSequence) {
  Service service(ServiceOptions{1, nullptr});
  service.handle(Request{ModelsRequest{}});
  EXPECT_EQ(service.last_request_trace().trace_id, 1u);
  // The serve transport burns ids from the same sequence for lines that
  // never became a request.
  EXPECT_EQ(service.allocate_trace_id(), 2u);
  service.handle(Request{ModelsRequest{}});
  EXPECT_EQ(service.last_request_trace().trace_id, 3u);
}

TEST(Service, AThrowingHandlerStillPublishesItsTrace) {
  Service service(ServiceOptions{1, nullptr});
  EXPECT_THROW(service.handle(Request{ScheduleRequest{
                   tiny_schedule(), "/nonexistent/table.json"}}),
               std::runtime_error);
  const RequestTrace& trace = service.last_request_trace();
  EXPECT_EQ(trace.trace_id, 1u);
  EXPECT_EQ(trace.op, "schedule");
  EXPECT_GT(trace.wall_s, 0.0);
  EXPECT_FALSE(obs::current_context().active());
}

TEST(Service, ProfileAggregatesAreByteIdenticalAcrossWorkerCounts) {
  // Two schedules then a no-times profile snapshot, at 1 and at 8 pool
  // workers: paths are fixed by enqueue point and counts by the
  // deterministic schedule run, so the aggregate bytes must match.
  const auto run = [](int jobs) {
    obs::profile_store().reset();  // the store is process-global
    Service service(ServiceOptions{jobs, nullptr});
    const Request request{ScheduleRequest{tiny_schedule(), ""}};
    service.handle(request);
    service.handle(request);
    const Response profile = service.handle(
        request_from_json(Json::parse(R"({"op": "profile", "times": false})")));
    EXPECT_TRUE(profile.ok);
    return profile.payload.at("profile").dump(2);
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(8));
  const Json parsed = Json::parse(serial);
  EXPECT_EQ(parsed.at("schedule").at("requests").as_int(), 2);
  EXPECT_EQ(parsed.at("schedule").at("spans").at("schedule").at("count")
                .as_int(),
            2);
}

TEST(Service, ProfileTimesAppearByDefaultAndResetDrops) {
  obs::profile_store().reset();
  Service service(ServiceOptions{1, nullptr});
  service.handle(Request{ModelsRequest{}});
  const Response timed = service.handle(Request{ProfileRequest{}});
  ASSERT_TRUE(timed.ok);
  const Json& models_agg = timed.payload.at("profile").at("models");
  EXPECT_EQ(models_agg.at("requests").as_int(), 1);
  const Json& root = models_agg.at("spans").at("models");
  EXPECT_EQ(root.at("count").as_int(), 1);
  EXPECT_GE(root.at("total_s").as_number(), 0.0);
  EXPECT_GE(root.at("self_s").as_number(), 0.0);
  EXPECT_FALSE(timed.payload.contains("reset"));

  const Response dropped =
      service.handle(Request{ProfileRequest{false, true}});
  ASSERT_TRUE(dropped.ok);
  EXPECT_TRUE(dropped.payload.at("reset").as_bool());
  // After the reset, only the resetting profile request itself remains.
  const Response after = service.handle(Request{ProfileRequest{false}});
  EXPECT_FALSE(after.payload.at("profile").contains("models"));
  EXPECT_EQ(after.payload.at("profile").at("profile").at("requests")
                .as_int(),
            1);
}

TEST(Service, StatsResetZeroesTheRegistryInPlace) {
  Service service(ServiceOptions{1, nullptr});
  service.handle(Request{ModelsRequest{}});
  const Response snap = service.handle(
      request_from_json(Json::parse(R"({"op": "stats", "reset": true})")));
  ASSERT_TRUE(snap.ok);
  EXPECT_TRUE(snap.payload.at("reset").as_bool());
  // The registry is process-global and cumulative, so assert only what
  // reset guarantees: the pre-reset snapshot saw at least this service's
  // requests, and the next snapshot starts over from exactly one.
  EXPECT_GE(snap.payload.at("metrics").at("counters").at("api/requests")
                .as_int(),
            2);
  const Response after = service.handle(Request{StatsRequest{}});
  EXPECT_FALSE(after.payload.contains("reset"));
  EXPECT_EQ(after.payload.at("metrics").at("counters").at("api/requests")
                .as_int(),
            1);
  // The service's own envelope tallies are not registry values and
  // survive the reset untouched.
  ASSERT_TRUE(after.service.has_value());
  EXPECT_EQ(after.service->requests, 3);
}

TEST(Service, CorruptCalibrationTableDegradesToAnalyticFallback) {
  // A table that opens but does not parse is a degradation, not a request
  // failure: the schedule still runs, uncalibrated, and the incident is
  // visible in the registry.
  const std::string path = testing::TempDir() + "/service_corrupt_table.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << "{ this is not json\n";
  }
  const std::int64_t before =
      obs::registry().counter("degraded/calibration_table").value();

  Service service(ServiceOptions{1, nullptr});
  const Request request{ScheduleRequest{tiny_schedule(), path}};
  const Response degraded = service.handle(request);
  ASSERT_TRUE(degraded.ok);
  EXPECT_FALSE(
      degraded.payload.at("result").at("fleet").at("calibrated").as_bool());
  EXPECT_EQ(obs::registry().counter("degraded/calibration_table").value(),
            before + 1);
  // A failed load is never memoized, so nothing counts as loaded...
  ASSERT_TRUE(degraded.service.has_value());
  EXPECT_EQ(degraded.service->calibrations_loaded, 0);

  // ...and repairing the file lets the same resident service recover.
  calib::InterferenceTable table;
  table.set(calib::PairKey{"vgg16", "resnet50", calib::GpuShape{4, 2.0}},
            calib::PairFactors{0.07, 0.9});
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << table.to_json().dump(2) << '\n';
  }
  const Response recovered = service.handle(request);
  std::remove(path.c_str());
  ASSERT_TRUE(recovered.ok);
  EXPECT_TRUE(
      recovered.payload.at("result").at("fleet").at("calibrated").as_bool());
  EXPECT_EQ(recovered.service->calibrations_loaded, 1);
}

TEST(Service, TableLoadFailpointTripsTheSameFallback) {
  calib::InterferenceTable table;
  table.set(calib::PairKey{"vgg16", "resnet50", calib::GpuShape{4, 2.0}},
            calib::PairFactors{0.07, 0.9});
  const std::string path = testing::TempDir() + "/service_failpoint_table.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << table.to_json().dump(2) << '\n';
  }

  Service service(ServiceOptions{1, nullptr});
  const Request request{ScheduleRequest{tiny_schedule(), path}};
  util::failpoints::configure("table/load=error(1)");
  const Response degraded = service.handle(request);
  EXPECT_EQ(util::failpoints::fired("table/load"), 1);
  util::failpoints::clear();
  ASSERT_TRUE(degraded.ok);
  EXPECT_FALSE(
      degraded.payload.at("result").at("fleet").at("calibrated").as_bool());

  // With the failpoint disarmed the untouched file loads normally.
  const Response recovered = service.handle(request);
  std::remove(path.c_str());
  ASSERT_TRUE(recovered.ok);
  EXPECT_TRUE(
      recovered.payload.at("result").at("fleet").at("calibrated").as_bool());
}

TEST(Service, RequestTimeoutValidationAndDefaults) {
  ServiceOptions options{1, nullptr};
  options.default_timeout_ms = -1.0;
  EXPECT_THROW(Service{options}, std::invalid_argument);

  // A generous deadline changes nothing about the answer.
  ServiceOptions relaxed{1, nullptr};
  relaxed.default_timeout_ms = 3600e3;
  Service with_deadline(relaxed);
  Service without(ServiceOptions{1, nullptr});
  const Request request{ScheduleRequest{tiny_schedule(), ""}};
  EXPECT_EQ(with_deadline.handle(request).payload.dump(2),
            without.handle(request).payload.dump(2));
}

TEST(Service, ErrorResponseCountsAndStamps) {
  Service service(ServiceOptions{1, nullptr});
  const Response error = service.error_response("bad line", "");
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.error, "bad line");
  ASSERT_TRUE(error.service.has_value());
  EXPECT_EQ(error.service->errors, 1);
  EXPECT_EQ(error.service->requests, 0);
  EXPECT_EQ(to_json(error).at("version").as_string(), version());
}

}  // namespace
}  // namespace deeppool::api
