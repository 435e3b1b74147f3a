// cold_plan: `plan` requests over a fixed grid of distinct shapes — zoo
// model x GPU count x global batch x amp limit x network — decoded from
// JSON lines and handled in-process by one caller. The planner DP,
// ProfileSet construction and model-graph builds do all the work; the
// engine and transport stay idle.
//
// Every request is equally cold: the plan op keeps nothing between
// requests (no cache sits on its path; each pass checks that the plan
// cache counters do not move), so repeating the grid repeats the same
// work. The seed only permutes the order in which the grid is visited.
//
// Set-up: a fresh Service that answers every grid shape once. Measured:
// whole passes over the permuted grid (a round is one pass); every plan
// must be ok, and the digest of the grid's payloads must repeat on every
// pass.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "api/request.h"
#include "bench.h"
#include "layers.h"
#include "runtime/scenario_config.h"
#include "util/rng.h"

namespace perfbench {

using namespace deeppool;

namespace {

constexpr double kLimitS = 0.1;  ///< a plan slower than this misses
constexpr int kSetupsBefore = 3;
constexpr int kSetupEvery = 5;  ///< passes between later set-up samples
constexpr int kMinPasses = 3;

std::vector<api::PlanRequest> grid(std::uint64_t seed) {
  std::vector<api::PlanRequest> requests;
  for (const char* model :
       {"vgg11", "vgg16", "resnet50", "wide_resnet101_2", "inception_v3"}) {
    for (const int gpus : {4, 8, 16, 32}) {
      for (const std::int64_t batch : {32, 64}) {
        for (const double amp : {1.5, 0.0}) {
          for (const char* network : {"nvswitch", "100g"}) {
            api::PlanRequest request;
            request.spec.name = "cold_plan";
            request.spec.seed = seed;
            request.spec.model = model;
            request.spec.network = network;
            request.spec.global_batch = batch;
            request.spec.amp_limit = amp;
            request.spec.config.num_gpus = gpus;
            requests.push_back(std::move(request));
          }
        }
      }
    }
  }
  return requests;
}

}  // namespace

Result run_cold_plan(const Args& args) {
  Result result;
  const std::vector<api::PlanRequest> requests = grid(args.seed);
  std::vector<std::string> lines;
  for (const api::PlanRequest& request : requests) {
    lines.push_back(api::to_json(api::Request{request}).dump());
  }
  // Visit order: a seeded permutation of the grid, the same on every pass.
  std::vector<std::size_t> order(lines.size());
  std::iota(order.begin(), order.end(), 0);
  Pcg32 rng(args.seed);
  std::shuffle(order.begin(), order.end(), rng);
  Tracer quiet(false, 0);

  Rounds rounds;
  const auto fresh_service = [&] {
    api::ServiceOptions options;
    options.jobs = service_jobs();
    auto service = std::make_unique<api::Service>(options);
    bool all_ok = true;
    for (const std::size_t i : order) {
      all_ok = serve_in_process(*service, lines[i], quiet, 0).response.ok &&
               all_ok;
    }
    result.check(all_ok, "a set-up plan request failed");
    return service;
  };
  for (int i = 0; i < kSetupsBefore; ++i) rounds.time_setup(fresh_service);
  const std::unique_ptr<api::Service> service = fresh_service();

  Tracer tracer(false, 0);
  std::vector<double> latency_s;  // untraced user path
  std::vector<double> traced_s;   // traced user path
  std::uint64_t grid_digest = 0;
  std::int64_t bytes_out = 0;
  const Clock::time_point run_start = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    if (seconds_since(run_start) >= args.seconds && pass >= kMinPasses &&
        (!args.trace || !traced_s.empty())) {
      break;
    }
    std::vector<std::uint64_t> payload_hash(lines.size(), 0);
    std::vector<double> pass_latency_s;
    RoundWork work;
    const Counters before = registry_counters();
    for (const std::size_t i : order) {
      const std::uint64_t id =
          static_cast<std::uint64_t>(pass) * lines.size() + i + 1;
      tracer.set_enabled(traced);
      const Clock::time_point start = Clock::now();
      const Served served = serve_in_process(*service, lines[i], tracer, id);
      const double elapsed = seconds_since(start);
      pass_latency_s.push_back(elapsed);
      work.seconds += elapsed;
      bytes_out += static_cast<std::int64_t>(served.line.size());
      ++result.attempted;
      if (!served.response.ok) {
        ++result.errors;
        result.fail("plan request failed: " + served.response.error);
        continue;
      }
      ++work.jobs;  // one plan request plans one training job
      if (elapsed > kLimitS) {
        ++result.over_limit;
      } else {
        ++result.ok;
        ++work.ok;
      }
      const std::string_view payload = payload_bytes(served.line);
      payload_hash[i] = fnv1a(payload);
      if (traced) {
        result.check(decompose_plan(requests[i], tracer, id).dump() == payload,
                     "decomposed plan payload differs from handle()'s");
        result.check(resolve_plan(requests[i], tracer, id).dump() == payload,
                     "resolve_spec plan payload differs from handle()'s");
      }
    }
    tracer.set_enabled(false);
    const Counters counts = delta(before, registry_counters());
    std::vector<double>& all = traced ? traced_s : latency_s;
    all.insert(all.end(), pass_latency_s.begin(), pass_latency_s.end());
    work.latency_s = std::move(pass_latency_s);
    rounds.add(result, counts, work);
    result.check(sum_prefix(counts, "plan_cache/") == 0,
                 "plan requests touched the plan cache");
    // The grid digest folds the payload hashes in grid order, so it is
    // independent of the visit order and must repeat on every pass.
    std::uint64_t digest = fnv1a("");
    for (const std::uint64_t hash : payload_hash) {
      digest = fnv1a(std::string_view(reinterpret_cast<const char*>(&hash),
                                      sizeof hash),
                     digest);
    }
    if (pass == 0) grid_digest = digest;
    result.check(digest == grid_digest,
                 "grid payload digest changed between passes");
    if (pass % kSetupEvery == kSetupEvery - 1) {
      rounds.time_setup(fresh_service);
    }
  }

  result.line("grid: " + std::to_string(lines.size()) +
              " distinct plan shapes; payload digest " + hex(grid_digest));
  rounds.report(result);
  if (!args.trace) {
    rounds.end_to_end(result);
    return result;
  }

  std::map<std::string, double> derived;
  derived["json.bytes_out"] =
      static_cast<double>(bytes_out) / static_cast<double>(result.attempted);
  finish_traced(result, args, {&tracer}, rounds.reference(),
                std::move(derived), traced_s, latency_s);
  return result;
}

}  // namespace perfbench
