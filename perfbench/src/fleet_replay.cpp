// fleet_replay: the sched_fleet_100k shape — 100k Poisson jobs on 1000
// GPUs under burst_lending — replayed through Service::handle plus the
// response-envelope encode, which is what a `deeppool schedule` user waits
// for. The event loop, lend pricing, ClusterIndex upkeep, utilization
// accounting and the ~29 MB result encode do almost all the work; five
// plan shapes make resolve, parse and transport negligible.
//
// Set-up: a fresh Service plus one small schedule request over the same
// mix that plans all five shapes. Measured: back-to-back replays of one
// seeded request (a round is one replay); every replay must complete every
// job and answer the same payload bytes.
#include <memory>
#include <string>
#include <vector>

#include "api/request.h"
#include "bench.h"
#include "layers.h"
#include "sched/scheduler.h"
#include "sched/workload.h"

namespace perfbench {

using namespace deeppool;

namespace {

constexpr int kFleetJobs = 100000;
constexpr int kWarmupJobs = 200;
constexpr std::size_t kShapes = 5;  ///< fg_mix + bg_mix entries
constexpr double kLimitS = 60.0;    ///< a replay slower than this misses
constexpr int kSetupsBefore = 3;
constexpr int kSetupsBetween = 4;   ///< after every replay
constexpr std::size_t kMinReplays = 3;

sched::ScheduleSpec fleet_spec(std::uint64_t seed, int num_jobs) {
  sched::ScheduleSpec spec;
  spec.name = "fleet_replay";
  spec.workload = sched::reference_poisson_mix();
  spec.workload.rate_per_s = 50.0;
  spec.workload.num_jobs = num_jobs;
  spec.workload.seed = seed;
  spec.config.num_gpus = 1000;
  spec.config.policy = "burst_lending";
  spec.config.util_timeline_bins = 48;
  return spec;
}

std::string schedule_line(const sched::ScheduleSpec& spec) {
  api::ScheduleRequest request;
  request.spec = spec;
  return api::to_json(api::Request{request}).dump();
}

}  // namespace

Result run_fleet_replay(const Args& args) {
  Result result;
  const int jobs = service_jobs();
  const std::string line = schedule_line(fleet_spec(args.seed, kFleetJobs));
  const std::string warmup_line =
      schedule_line(fleet_spec(args.seed, kWarmupJobs));
  Tracer quiet(false, 0);

  Rounds rounds;
  const auto fresh_service = [&] {
    api::ServiceOptions options;
    options.jobs = jobs;
    auto service = std::make_unique<api::Service>(options);
    const Served warm = serve_in_process(*service, warmup_line, quiet, 0);
    result.check(warm.response.ok,
                 "set-up request failed: " + warm.response.error);
    result.check(service->plan_cache().size() == kShapes,
                 "set-up planned " +
                     std::to_string(service->plan_cache().size()) +
                     " shapes, expected " + std::to_string(kShapes));
    return service;
  };
  for (int i = 0; i < kSetupsBefore; ++i) rounds.time_setup(fresh_service);
  const std::unique_ptr<api::Service> service = fresh_service();

  // The traced run decomposes every traced replay's handler against its
  // own warm cache and a pool of the Service's width.
  Tracer tracer(false, 0);
  util::ThreadPool pool(jobs);
  core::PlanCache cache;
  const api::ScheduleRequest request = std::get<api::ScheduleRequest>(
      api::request_from_json(Json::parse(line)).body);
  if (args.trace) {
    std::int64_t ignored = 0;
    decompose_schedule(std::get<api::ScheduleRequest>(
                           api::request_from_json(Json::parse(warmup_line))
                               .body),
                       jobs, pool, cache, quiet, 0, ignored);
  }

  std::vector<double> latency_s;  // untraced user path
  std::vector<double> traced_s;   // traced user path
  std::uint64_t payload_hash = 0;
  std::int64_t bytes_out = 0;
  std::int64_t generated_jobs = 0;
  const Clock::time_point run_start = Clock::now();
  for (std::uint64_t id = 1;; ++id) {
    const bool traced = args.trace && id % 2 == 0;
    if (seconds_since(run_start) >= args.seconds &&
        latency_s.size() >= (args.trace ? 1 : kMinReplays) &&
        (!args.trace || !traced_s.empty())) {
      break;
    }
    tracer.set_enabled(traced);
    const Counters before = registry_counters();
    const Clock::time_point start = Clock::now();
    const Served served = serve_in_process(*service, line, tracer, id);
    const double elapsed = seconds_since(start);
    tracer.set_enabled(false);
    const Counters counts = delta(before, registry_counters());
    (traced ? traced_s : latency_s).push_back(elapsed);
    bytes_out += static_cast<std::int64_t>(served.line.size());

    ++result.attempted;
    RoundWork work{elapsed, 0, 0, {elapsed}};
    if (!served.response.ok) {
      ++result.errors;
      result.fail("replay failed: " + served.response.error);
    } else {
      if (elapsed > kLimitS) {
        ++result.over_limit;
      } else {
        ++result.ok;
        work.ok = 1;
        work.jobs = kFleetJobs;
      }
      const std::int64_t completed = served.response.payload.at("result")
                                         .at("fleet")
                                         .at("jobs_completed")
                                         .as_int();
      result.check(completed == kFleetJobs,
                   "replay completed " + std::to_string(completed) + " of " +
                       std::to_string(kFleetJobs) + " jobs");
      const std::uint64_t hash = fnv1a(payload_bytes(served.line));
      if (payload_hash == 0) payload_hash = hash;
      result.check(hash == payload_hash,
                   "replay payloads differ within one run");
    }
    rounds.add(result, counts, work);
    if (traced) {
      tracer.set_enabled(true);
      const Json payload = decompose_schedule(request, jobs, pool, cache,
                                              tracer, id, generated_jobs);
      tracer.set_enabled(false);
      result.check(payload.dump() == payload_bytes(served.line),
                   "decomposed schedule payload differs from handle()'s");
    }
    for (int i = 0; i < kSetupsBetween; ++i) rounds.time_setup(fresh_service);
  }

  result.line("replays of " + std::to_string(kFleetJobs) +
              " jobs on 1000 GPUs; payload " + hex(payload_hash));
  rounds.report(result);
  if (!args.trace) {
    rounds.end_to_end(result);
    return result;
  }

  std::map<std::string, double> derived;
  derived["json.bytes_out"] = static_cast<double>(bytes_out) /
                              static_cast<double>(result.attempted);
  derived["workload.jobs"] = static_cast<double>(generated_jobs);
  finish_traced(result, args, {&tracer}, rounds.reference(),
                std::move(derived), traced_s, latency_s);
  return result;
}

}  // namespace perfbench
