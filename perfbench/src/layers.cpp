#include "layers.h"

#include <algorithm>
#include <exception>
#include <optional>

#include "api/version.h"
#include "core/planner.h"
#include "core/profile.h"
#include "models/cost_model.h"
#include "models/zoo.h"
#include "net/network_model.h"
#include "runtime/scenario_config.h"
#include "sched/scheduler.h"
#include "sched/workload.h"

namespace perfbench {

using namespace deeppool;

int service_jobs() { return std::min(2, util::hardware_jobs()); }

Served serve_in_process(api::Service& service, const std::string& request_line,
                        Tracer& tracer, std::uint64_t request) {
  Served served;
  const Span root(tracer, "request", request);
  try {
    Json parsed;
    {
      const Span span(tracer, "json.parse", request);
      parsed = Json::parse(request_line);
    }
    api::Request decoded;
    {
      const Span span(tracer, "api.decode", request);
      decoded = api::request_from_json(parsed);
    }
    const Span span(tracer, "api.handle", request);
    served.response = service.handle(decoded);
  } catch (const std::exception& e) {
    served.response = service.error_response(e.what());
  }
  Json envelope;
  {
    const Span span(tracer, "api.envelope", request);
    envelope = api::to_json(served.response);
  }
  const Span span(tracer, "json.dump", request);
  served.line = envelope.dump();
  return served;
}

Json decompose_schedule(const api::ScheduleRequest& req, int jobs,
                        util::ThreadPool& pool, core::PlanCache& cache,
                        Tracer& tracer, std::uint64_t request,
                        std::int64_t& generated_jobs) {
  const Span root(tracer, "handler", request);
  const sched::ScheduleSpec& spec = req.spec;
  {
    const Span span(tracer, "workload.validate", request);
    sched::validate(spec.workload);
  }
  {
    const Span span(tracer, "workload.generate", request);
    generated_jobs =
        static_cast<std::int64_t>(sched::generate_workload(spec.workload).size());
  }
  sched::ScheduleRunOptions options;
  options.jobs = jobs;
  options.pool = &pool;
  options.shared_plan_cache = &cache;
  sched::ScheduleResult result;
  {
    const Span span(tracer, "sched.run", request);
    result = sched::run_schedule(spec, options);
  }
  Json result_json;
  {
    const Span span(tracer, "sched.result_json", request);
    result_json = sched::to_json(result);
  }
  Json payload;
  payload["schedule"] = Json(spec.name);
  payload["seed"] = Json(static_cast<std::int64_t>(result.seed));
  payload["jobs"] = Json(jobs);
  payload["spec"] = sched::to_json(spec);
  payload["result"] = std::move(result_json);
  payload["version"] = Json(api::version());
  return payload;
}

Json decompose_plan(const api::PlanRequest& req, Tracer& tracer,
                    std::uint64_t request) {
  const Span root(tracer, "handler", request);
  const runtime::ScenarioSpec& spec = req.spec;
  std::optional<models::ModelGraph> model;
  {
    const Span span(tracer, "models.graph", request);
    model.emplace(models::zoo::by_name(spec.model));
  }
  const models::CostModel cost{models::DeviceSpec::a100()};
  const net::NetworkModel network{net::NetworkSpec::from_name(spec.network)};
  std::optional<core::ProfileSet> profiles;
  {
    const Span span(tracer, "core.profile", request);
    profiles.emplace(*model, cost, network,
                     core::ProfileOptions{spec.config.num_gpus,
                                          spec.global_batch, spec.pow2_only});
  }
  std::optional<core::TrainingPlan> plan;
  {
    const Span span(tracer, "core.planner", request);
    plan.emplace(core::Planner(*profiles).plan({spec.amp_limit}));
  }
  Json payload = plan->to_json();
  payload["seed"] = Json(static_cast<std::int64_t>(spec.seed));
  payload["version"] = Json(api::version());
  return payload;
}

Json resolve_plan(const api::PlanRequest& req, Tracer& tracer,
                  std::uint64_t request) {
  std::optional<runtime::ScenarioConfig> resolved;
  {
    const Span span(tracer, "runtime.resolve", request);
    resolved.emplace(runtime::resolve_spec(req.spec));
  }
  Json payload = resolved->fg_plan->to_json();
  payload["seed"] = Json(static_cast<std::int64_t>(req.spec.seed));
  payload["version"] = Json(api::version());
  return payload;
}

}  // namespace perfbench
