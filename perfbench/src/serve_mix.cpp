// serve_mix: a closed loop of 2 client connections over a unix socket to
// an in-process io::Server, over a Service with a 2-worker budget. Each
// connection sends small schedule requests (8/16/24 jobs on 16 GPUs, a
// fresh seed per request, policy rotating through burst_lending, best_fit
// and fifo_partition) with a trivial `models` request as every fourth.
// Everything warm is loaded: parse and decode, sched::validate, PlanCache
// hits, many tiny engine runs under every policy, small-envelope encode,
// socket transport and lease grants.
//
// Set-up: a fresh Service, an io::Server bound on a socket in a private
// temp dir, and one in-process schedule request per policy that plans
// every shape of the mix; timed 30 times before the first round.
// Measured: rounds in which each connection sends its seeded request list
// back to back; every response must parse, be ok, and answer its own
// request in order, and a sample must equal what in-process handle()
// answers for the same line.
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/request.h"
#include "api/response.h"
#include "bench.h"
#include "io/address.h"
#include "io/server.h"
#include "io/socket.h"
#include "layers.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "util/rng.h"

namespace perfbench {

using namespace deeppool;

namespace {

constexpr int kConnections = 2;
constexpr int kRoundRequests = 1024;  ///< per connection per round
constexpr double kLimitS = 0.05;     ///< an answer slower than this misses
// All set-ups come before the rounds: set-ups between rounds would start
// and stop threads, and where their malloc arenas land made peak RSS
// swing by 20% from run to run.
constexpr int kSetups = 30;
constexpr int kMinRounds = 4;
constexpr int kSampleEvery = 16;     ///< in-process payload comparisons
constexpr std::size_t kShapes = 5;   ///< fg_mix + bg_mix entries
constexpr std::size_t kMaxReply = 8ull * 1024 * 1024;
const char* const kPolicies[] = {"burst_lending", "best_fit",
                                 "fifo_partition"};
const int kJobCounts[] = {8, 16, 24};

struct MixRequest {
  std::string line;
  std::string op;
  std::string name;  ///< schedule: the spec name the payload echoes
  int jobs = 0;
  std::optional<api::ScheduleRequest> schedule;
};

MixRequest schedule_request(std::string name, int jobs, const char* policy,
                            std::uint64_t seed) {
  api::ScheduleRequest request;
  request.spec.name = name;
  request.spec.workload = sched::reference_poisson_mix();
  request.spec.workload.num_jobs = jobs;
  request.spec.workload.seed = seed;
  request.spec.config.num_gpus = 16;
  request.spec.config.policy = policy;
  MixRequest mix;
  mix.line = api::to_json(api::Request{request}).dump();
  mix.op = api::ScheduleRequest::kOp;
  mix.name = std::move(name);
  mix.jobs = jobs;
  mix.schedule = std::move(request);
  return mix;
}

/// One connection's request list, the same on every round. Each job count
/// takes an equal share of the schedule requests, in seeded order, so the
/// seed moves the traces but not the amount of work.
std::vector<MixRequest> connection_requests(std::uint64_t seed, int conn) {
  Pcg32 rng(seed, static_cast<std::uint64_t>(conn) + 1);
  std::vector<int> job_counts;
  for (int i = 0; i < kRoundRequests; ++i) {
    if (i % 4 != 3) job_counts.push_back(kJobCounts[job_counts.size() % 3]);
  }
  std::shuffle(job_counts.begin(), job_counts.end(), rng);
  std::vector<MixRequest> requests;
  std::size_t schedules = 0;
  for (int i = 0; i < kRoundRequests; ++i) {
    if (i % 4 == 3) {
      MixRequest mix;
      mix.line = api::to_json(api::Request{api::ModelsRequest{}}).dump();
      mix.op = api::ModelsRequest::kOp;
      requests.push_back(std::move(mix));
      continue;
    }
    const int jobs = job_counts[schedules];
    const std::uint64_t request_seed = rng();
    requests.push_back(schedule_request(
        "mix-c" + std::to_string(conn) + "-" + std::to_string(i), jobs,
        kPolicies[schedules++ % 3], request_seed));
  }
  return requests;
}

/// A private directory under the run's scratch dir, removed with its
/// contents on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::string pattern = parent + "/serve-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a temp dir under " + parent);
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// One serving stack: a Service and an io::Server listening on a unix
/// socket, its accept loop on a thread. Destruction stops and joins it.
class Stack {
 public:
  Stack(int jobs, const std::string& socket_path)
      : service_(options(jobs)),
        server_(service_, io::unix_address(socket_path), server_options()),
        runner_([this] {
          try {
            server_.run();
          } catch (const std::exception&) {
            failed_.store(true);
          }
        }) {}
  ~Stack() {
    server_.stop();
    runner_.join();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  api::Service& service() noexcept { return service_; }
  bool failed() const noexcept { return failed_.load(); }

 private:
  static api::ServiceOptions options(int jobs) {
    api::ServiceOptions options;
    options.jobs = jobs;
    return options;
  }
  static io::ServerOptions server_options() {
    io::ServerOptions options;
    options.max_connections = kConnections;
    return options;
  }

  api::Service service_;
  io::Server server_;
  std::atomic<bool> failed_{false};
  std::thread runner_;  ///< last: it uses the members above
};

/// What one connection saw in one round.
struct ClientRound {
  std::vector<double> latency_s;
  std::vector<std::string> replies;
  bool transport_ok = true;
};

/// A closed-loop client: connects once, then on each round sends its
/// request list back to back, one request in flight at a time.
void client_loop(const std::string& socket_path,
                 const std::vector<MixRequest>& requests, ClientRound& round,
                 Tracer& tracer, std::barrier<>& sync,
                 const std::atomic<bool>& stop, std::uint64_t conn) {
  std::optional<io::Connection> connection;
  try {
    connection.emplace(io::Connection::connect_unix(socket_path));
  } catch (const std::exception&) {
    connection.reset();
  }
  round.latency_s.assign(requests.size(), 0.0);
  round.replies.assign(requests.size(), std::string());
  for (;;) {
    sync.arrive_and_wait();
    if (stop.load()) return;
    round.transport_ok = connection.has_value();
    for (std::size_t i = 0; i < requests.size() && round.transport_ok; ++i) {
      const Span span(tracer, "io.rtt", (conn << 32) | i);
      const Clock::time_point start = Clock::now();
      round.transport_ok =
          connection->write_line(requests[i].line) &&
          connection->read_line(round.replies[i], kMaxReply) ==
              io::Connection::ReadStatus::kLine;
      round.latency_s[i] = seconds_since(start);
    }
    sync.arrive_and_wait();
  }
}

/// Checks one response line against the request it answers; returns the
/// jobs it scheduled (0 for models or a failure).
int check_reply(Result& result, const MixRequest& request,
                const std::string& reply, double latency_s) {
  ++result.attempted;
  api::Response response;
  try {
    response = api::response_from_json(Json::parse(reply));
  } catch (const std::exception& e) {
    ++result.errors;
    result.fail("response line does not parse: " + std::string(e.what()));
    return 0;
  }
  if (!response.ok) {
    ++(response.retry_after_ms ? result.shed : result.errors);
    result.fail("request answered not ok: " + response.error);
    return 0;
  }
  if (latency_s > kLimitS) ++result.over_limit;
  else ++result.ok;
  if (response.op != request.op ||
      (request.schedule &&
       response.payload.at("schedule").as_string() != request.name)) {
    result.fail("response out of order: expected " + request.op + " " +
                request.name + ", got " + response.op);
    return 0;
  }
  if (!request.schedule) return 0;
  const std::int64_t completed =
      response.payload.at("result").at("fleet").at("jobs_completed").as_int();
  result.check(completed == request.jobs,
               request.name + " completed " + std::to_string(completed) +
                   " of " + std::to_string(request.jobs) + " jobs");
  return latency_s > kLimitS ? 0 : request.jobs;
}

/// Zeroes a schedule payload's per-run plan-cache counters; returns what
/// they held.
std::pair<std::int64_t, std::int64_t> mask_cache_counters(Json& payload) {
  if (!payload.contains("result")) return {0, 0};
  Json& fleet = payload["result"]["fleet"];
  const std::pair<std::int64_t, std::int64_t> held{
      fleet.at("plan_cache_hits").as_int(),
      fleet.at("plan_cache_misses").as_int()};
  fleet["plan_cache_hits"] = Json(0);
  fleet["plan_cache_misses"] = Json(0);
  return held;
}

/// Sum and count of the server-side handle() wall time, all ops.
std::pair<double, std::int64_t> handle_totals() {
  std::pair<double, std::int64_t> total{0.0, 0};
  for (const char* op : {"schedule", "models"}) {
    const auto [sum, count] =
        histogram_totals(std::string("api/request_s/") + op);
    total.first += sum;
    total.second += count;
  }
  return total;
}

}  // namespace

Result run_serve_mix(const Args& args) {
  Result result;
  const int jobs = service_jobs();
  std::vector<std::vector<MixRequest>> requests;
  for (int c = 0; c < kConnections; ++c) {
    requests.push_back(connection_requests(args.seed, c));
  }
  std::vector<std::string> warmup_lines;
  for (const char* policy : kPolicies) {
    warmup_lines.push_back(
        schedule_request("mix-warmup", 64, policy, args.seed).line);
  }
  warmup_lines.push_back(
      api::to_json(api::Request{api::ModelsRequest{}}).dump());
  Tracer quiet(false, 0);

  const TempDir dir(args.scratch);
  const std::string socket_path = dir.path() + "/serve.sock";
  const Counters run_before = registry_counters();
  Rounds per_round;
  const auto fresh_stack = [&] {
    auto stack = std::make_unique<Stack>(jobs, socket_path);
    bool all_ok = true;
    for (const std::string& line : warmup_lines) {
      all_ok = serve_in_process(stack->service(), line, quiet, 0).response.ok &&
               all_ok;
    }
    result.check(all_ok, "a set-up request failed");
    result.check(stack->service().plan_cache().size() == kShapes,
                 "set-up planned " +
                     std::to_string(stack->service().plan_cache().size()) +
                     " shapes, expected " + std::to_string(kShapes));
    return stack;
  };
  for (int i = 0; i < kSetups; ++i) per_round.time_setup(fresh_stack);
  std::unique_ptr<Stack> stack = fresh_stack();
  api::Service& service = stack->service();

  // The traced run decomposes each traced round's schedule requests
  // against its own warm cache and a pool of the Service's width.
  Tracer tracer(false, 0);
  util::ThreadPool pool(jobs);
  core::PlanCache cache;
  if (args.trace) {
    std::int64_t ignored = 0;
    decompose_schedule(
        *schedule_request("mix-warmup", 64, kPolicies[0], args.seed).schedule,
        jobs, pool, cache, quiet, 0, ignored);
  }

  std::vector<ClientRound> rounds(kConnections);
  std::vector<std::unique_ptr<Tracer>> client_tracers;
  std::barrier<> sync(kConnections + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    client_tracers.push_back(std::make_unique<Tracer>(false, c + 1));
    clients.emplace_back(client_loop, socket_path,
                         std::cref(requests[static_cast<std::size_t>(c)]),
                         std::ref(rounds[static_cast<std::size_t>(c)]),
                         std::ref(*client_tracers.back()), std::ref(sync),
                         std::cref(stop), static_cast<std::uint64_t>(c));
  }

  std::vector<double> latency_s;  // untraced rounds
  std::vector<double> traced_s;   // traced rounds
  std::int64_t bytes_out = 0;
  std::int64_t replies = 0;
  std::int64_t generated_jobs = 0;  // summed over decomposed requests
  std::int64_t decomposed = 0;
  double traced_rtt_s = 0;
  double traced_handle_s = 0;
  std::int64_t traced_requests = 0;
  // Every check below records a failure rather than throwing past the
  // clients, which must be released from the barrier before they join.
  double lease_wait_ms = 0;
  int compared = 0;
  int cache_counter_diffs = 0;
  try {
    const auto lease_before = histogram_totals("io/lease_wait_s");
    const Clock::time_point run_start = Clock::now();
    for (int r = 0;; ++r) {
      const bool traced = args.trace && r % 2 == 1;
      if (seconds_since(run_start) >= args.seconds && r >= kMinRounds) break;
      for (const auto& client_tracer : client_tracers) {
        client_tracer->set_enabled(traced);
      }
      const Counters before = registry_counters();
      const auto handle_before = handle_totals();
      sync.arrive_and_wait();  // round starts
      const Clock::time_point start = Clock::now();
      sync.arrive_and_wait();  // every client has its answers
      RoundWork work;
      work.seconds = seconds_since(start);
      // Accepts happen once per connection, whenever the server gets to
      // them: they are per-run counts, not per-round ones.
      Counters counts = delta(before, registry_counters());
      std::erase_if(counts, [](const auto& entry) {
        return entry.first.starts_with("io/");
      });
      const auto handle_after = handle_totals();

      const std::int64_t ok_before = result.ok;
      std::vector<double> round_latency_s;
      for (int c = 0; c < kConnections; ++c) {
        const ClientRound& round = rounds[static_cast<std::size_t>(c)];
        const std::vector<MixRequest>& list =
            requests[static_cast<std::size_t>(c)];
        result.check(round.transport_ok, "connection " + std::to_string(c) +
                                             " lost its transport");
        for (std::size_t i = 0; i < list.size(); ++i) {
          (traced ? traced_s : latency_s).push_back(round.latency_s[i]);
          round_latency_s.push_back(round.latency_s[i]);
          work.jobs += check_reply(result, list[i], round.replies[i],
                                   round.latency_s[i]);
          bytes_out += static_cast<std::int64_t>(round.replies[i].size());
          ++replies;
          if (traced) traced_rtt_s += round.latency_s[i];
        }
      }
      work.ok = result.ok - ok_before;
      work.latency_s = std::move(round_latency_s);
      per_round.add(result, counts, work);
      if (!traced) continue;
      traced_handle_s += handle_after.first - handle_before.first;
      traced_requests += handle_after.second - handle_before.second;
      // Decompose the round in-process, with the transport idle.
      tracer.set_enabled(true);
      for (int c = 0; c < kConnections; ++c) {
        for (std::size_t i = 0; i < kRoundRequests; ++i) {
          const MixRequest& request = requests[static_cast<std::size_t>(c)][i];
          const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | i;
          const Served served = serve_in_process(service, request.line, tracer, id);
          if (!request.schedule) continue;
          std::int64_t generated = 0;
          const Json payload = decompose_schedule(
              *request.schedule, jobs, pool, cache, tracer, id, generated);
          generated_jobs += generated;
          ++decomposed;
          result.check(payload.dump() == payload_bytes(served.line),
                       "decomposed schedule payload differs from handle()'s");
        }
      }
      tracer.set_enabled(false);
    }
    lease_wait_ms =
        (histogram_totals("io/lease_wait_s").first - lease_before.first) * 1e3 /
        static_cast<double>(std::max<std::int64_t>(replies, 1));

    // A sample of the last round's answers must equal in-process handle()
    // of the same lines, apart from the per-run plan-cache counters that
    // response.h documents as transport-dependent (under concurrency they
    // also pick up the other connection's lookups).
    for (int c = 0; c < kConnections; ++c) {
      for (std::size_t i = 0; i < kRoundRequests; i += kSampleEvery) {
        const Served served = serve_in_process(
            service, requests[static_cast<std::size_t>(c)][i].line, quiet, 0);
        Json local = Json::parse(payload_bytes(served.line));
        Json remote = Json::parse(payload_bytes(
            rounds[static_cast<std::size_t>(c)].replies[i]));
        cache_counter_diffs += mask_cache_counters(local) !=
                               mask_cache_counters(remote);
        result.check(local.dump() == remote.dump(),
                     "socket payload differs from in-process handle()'s");
        ++compared;
      }
    }
  } catch (const std::exception& e) {
    result.fail(std::string("serve_mix aborted: ") + e.what());
  }

  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& client : clients) client.join();
  result.check(!stack->failed(), "the server's accept loop threw");
  stack.reset();
  const Counters run = delta(run_before, registry_counters());
  result.check(sum_prefix(run, "io/accept_errors") == 0,
               "the server reported accept errors");

  result.line("connections: " + std::to_string(kConnections) + " x " +
              std::to_string(kRoundRequests) +
              " requests per round (1 in 4 models), service jobs " +
              std::to_string(jobs));
  result.line("payloads compared with in-process handle(): " +
              std::to_string(compared) + " (" +
              std::to_string(cache_counter_diffs) +
              " differed only in result.fleet.plan_cache_{hits,misses})");
  per_round.report(result);
  if (!args.trace) {
    per_round.end_to_end(result);
    return result;
  }

  std::map<std::string, double> derived;
  derived["json.bytes_out"] =
      static_cast<double>(bytes_out) / static_cast<double>(replies);
  derived["workload.jobs"] =
      static_cast<double>(generated_jobs) /
      static_cast<double>(std::max<std::int64_t>(decomposed, 1));
  derived["io.overhead_ms"] =
      (traced_rtt_s - traced_handle_s) * 1e3 /
      static_cast<double>(std::max<std::int64_t>(traced_requests, 1));
  derived["io.lease_wait_ms"] = lease_wait_ms;
  const auto accepts = run.find("io/accepts");
  derived["io.accepts"] =
      accepts == run.end() ? 0.0 : static_cast<double>(accepts->second);
  std::vector<const Tracer*> tracers{&tracer};
  for (const auto& client_tracer : client_tracers) {
    tracers.push_back(client_tracer.get());
  }
  finish_traced(result, args, tracers, per_round.reference(),
                std::move(derived), traced_s, latency_s);
  return result;
}

}  // namespace perfbench
