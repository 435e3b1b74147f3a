// The layer calls the benchmark times: the request path a deeppool user
// waits on (parse -> decode -> Service::handle -> envelope -> dump), and
// the handlers decomposed into the public entry points of the layers
// below api::Service, so the traced run can say where handle() spends
// its time. Each call is wrapped in a Span of the given Tracer.
#pragma once

#include <cstdint>
#include <string>

#include "api/request.h"
#include "api/response.h"
#include "api/service.h"
#include "bench.h"
#include "core/plan_cache.h"
#include "util/json.h"
#include "util/parallel.h"

namespace perfbench {

/// The Service worker budget every workload sets explicitly: 2, or fewer
/// on a machine with fewer hardware threads.
int service_jobs();

/// One request through the user path, as `deeppool serve` answers it.
struct Served {
  deeppool::api::Response response;
  std::string line;  ///< the compact envelope, as written to a client
};

/// parse -> decode -> handle -> envelope -> dump, under a "request" root
/// span. A request the Service rejects is answered in-band, as the serve
/// transports do.
Served serve_in_process(deeppool::api::Service& service,
                        const std::string& request_line, Tracer& tracer,
                        std::uint64_t request);

/// The schedule handler, one layer at a time under a "handler" root span:
/// sched::validate, generate_workload, run_schedule (sharing `cache` and
/// `pool`), sched::to_json, then the payload assembly. Returns the
/// payload; `generated_jobs` receives the generated trace's length.
deeppool::Json decompose_schedule(const deeppool::api::ScheduleRequest& req,
                                  int jobs, deeppool::util::ThreadPool& pool,
                                  deeppool::core::PlanCache& cache,
                                  Tracer& tracer, std::uint64_t request,
                                  std::int64_t& generated_jobs);

/// The plan handler, one layer at a time under a "handler" root span:
/// zoo::by_name, ProfileSet construction, Planner::plan, then the payload
/// assembly.
deeppool::Json decompose_plan(const deeppool::api::PlanRequest& req,
                              Tracer& tracer, std::uint64_t request);

/// The plan handler through runtime::resolve_spec, under a
/// "runtime.resolve" root span.
deeppool::Json resolve_plan(const deeppool::api::PlanRequest& req,
                            Tracer& tracer, std::uint64_t request);

}  // namespace perfbench
