#include "sched/scheduler.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/plan.h"
#include "core/plan_cache.h"
#include "core/planner.h"
#include "core/profile.h"
#include "models/cost_model.h"
#include "models/zoo.h"
#include "net/network_model.h"
#include "obs/metrics.h"
#include "runtime/scenario_config.h"
#include "sched/cluster_index.h"
#include "sched/policies.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/summary.h"
#include "util/trace.h"

namespace deeppool::sched {

namespace {

Json to_json_config(const ScheduleConfig& config) {
  Json j;
  j["num_gpus"] = Json(config.num_gpus);
  j["policy"] = Json(config.policy);
  j["qos_fg_slowdown"] = Json(config.qos_fg_slowdown);
  j["network"] = Json(config.network);
  j["pow2_only"] = Json(config.pow2_only);
  j["mux"] = runtime::to_json(config.mux);
  if (!config.calibration.empty()) {
    j["calibration"] = config.calibration.to_json();
  }
  j["util_timeline_bins"] = Json(config.util_timeline_bins);
  j["max_sim_time_s"] = Json(config.max_sim_time_s);
  return j;
}

ScheduleConfig config_from_json(const Json& j) {
  if (!j.is_object()) {
    throw std::runtime_error("cluster config must be a JSON object");
  }
  ScheduleConfig config;
  config.num_gpus = static_cast<int>(int_or(j, "num_gpus", config.num_gpus));
  config.policy = str_or(j, "policy", config.policy);
  config.qos_fg_slowdown =
      num_or(j, "qos_fg_slowdown", config.qos_fg_slowdown);
  config.network = str_or(j, "network", config.network);
  config.pow2_only = bool_or(j, "pow2_only", config.pow2_only);
  if (j.contains("mux")) {
    config.mux = runtime::multiplex_config_from_json(j.at("mux"));
  }
  if (j.contains("calibration")) {
    config.calibration =
        calib::InterferenceTable::from_json(j.at("calibration"));
  }
  config.util_timeline_bins = static_cast<int>(
      int_or(j, "util_timeline_bins", config.util_timeline_bins));
  config.max_sim_time_s = num_or(j, "max_sim_time_s", config.max_sim_time_s);
  return config;
}

void validate_config(const ScheduleConfig& config) {
  if (config.num_gpus < 1) throw std::invalid_argument("num_gpus must be >= 1");
  if (config.qos_fg_slowdown < 1.0) {
    throw std::invalid_argument("qos_fg_slowdown must be >= 1.0");
  }
  if (config.util_timeline_bins < 1) {
    throw std::invalid_argument("util_timeline_bins must be >= 1");
  }
  if (!(config.max_sim_time_s > 0.0)) {
    throw std::invalid_argument("max_sim_time_s must be > 0");
  }
  make_policy(config.policy);                    // throws on unknown names
  net::NetworkSpec::from_name(config.network);   // throws on unknown fabrics
}

/// A job's execution shape once resolved against the hardware model.
struct Shape {
  int gpus = 1;
  double iso_iter_s = 0.0;  ///< isolated per-iteration time
  double idle_frac = 0.0;   ///< lendable idle fraction of its GPUs (fg only)
};

constexpr double kRemainingEps = 1e-9;

/// Memory bound on the raw utilization step curve: past this many steps,
/// adjacent pairs merge (time-weighted, integral-preserving). Shipped traces
/// stay far below it, so their output is untouched.
constexpr std::size_t kUtilStepCap = std::size_t{1} << 16;

/// Event-driven fluid execution of one trace against one policy.
class Engine {
 public:
  Engine(const WorkloadSpec& workload, const ScheduleConfig& config,
         const ScheduleRunOptions& options)
      : config_(config),
        options_(options),
        policy_(make_policy(config.policy)),
        cost_(models::DeviceSpec::a100()),
        network_(net::NetworkSpec::from_name(config.network)),
        interference_(config.mux, config.calibration),
        gpus_(static_cast<std::size_t>(config.num_gpus)),
        trace_(options.trace) {
    indexed_ = options_.core != "reference";
    specs_ = generate_workload(workload);
    seed_ = workload.seed;
    if (options_.plan_cache) {
      plan_cache_ = options_.shared_plan_cache != nullptr
                        ? options_.shared_plan_cache
                        : &local_plan_cache_;
    }
  }

  ScheduleResult run();

 private:
  struct Gpu {
    int fg = -1;
    int bg = -1;
  };

  enum class State { kPending, kQueued, kRunning, kDone };

  struct Job {
    JobSpec spec;
    Shape shape;
    State state = State::kPending;
    std::vector<int> gpu_ids;
    bool lent = false;
    int host_fg = -1;
    double remaining_iters = 0.0;
    double rate = 0.0;  ///< iterations per second
    double last_settle_s = 0.0;
    std::int64_t queue_seq = 0;  ///< ClusterIndex key while kQueued (indexed)
    sim::EventId completion = 0;
    double start_s = -1.0;
    double finish_s = -1.0;
    int reclaims = 0;

    bool foreground() const { return spec.qos == QosClass::kForeground; }
  };

  Shape resolve_shape(const JobSpec& spec);
  void on_arrival(int id);
  void on_complete(int id);
  void try_dispatch();
  void dispatch(int job_id, const Placement& placement);
  void reclaim_tenant(int bg_id, int gpu, Job& incoming_fg, bool demote);
  std::vector<GpuView> gpu_views() const;
  calib::GpuShape shape_key(const Job& fg) const;
  calib::PairFactors pair_factors(const Job& fg, const Job& bg,
                                  bool count = true) const;
  double shared_interference(const Job& fg, bool count = true) const;
  double lend_rate_for(const std::string& bg_model, int gpu) const;
  void sync_gpu(int gpu);
  void refresh_host_lend(const Job& fg);
  void enqueue_front(int id);
  void enqueue_back(int id);
  void settle(Job& job);
  void set_rate(Job& job);
  void trace_instant(const char* cat, const Job& job);
  void note_queue_depth();
  void update_util();
  void compress_util_steps();
  double cluster_busy() const;
  void check_gpu_invariant(std::size_t g);
  void check_invariants();
  Json partial_metrics() const;
  ScheduleResult finalize();

  ScheduleConfig config_;
  ScheduleRunOptions options_;
  std::unique_ptr<PlacementPolicy> policy_;
  models::CostModel cost_;
  net::NetworkModel network_;
  /// Per-pair factor source: measured table entries with analytic fallback.
  calib::InterferenceModel interference_;
  /// Planner memoization: local per-run cache unless the caller shared one;
  /// nullptr when ScheduleRunOptions::plan_cache is off.
  core::PlanCache local_plan_cache_;
  core::PlanCache* plan_cache_ = nullptr;
  /// This run's own cache lookups, so neither a pre-warmed shared cache nor
  /// a concurrent run sharing it smears other lookups into the fleet
  /// metrics. Atomic: shape resolution fans out across workers.
  std::atomic<int> plan_hits_{0};
  std::atomic<int> plan_misses_{0};

  sim::Simulator sim_;
  std::vector<JobSpec> specs_;
  std::uint64_t seed_ = 0;
  std::vector<Job> jobs_;
  std::vector<int> queue_;  ///< pending job ids, dispatch order (reference)
  std::vector<Gpu> gpus_;

  /// The indexed core: incremental queue + cluster state instead of
  /// per-event snapshot rebuilds. Reference mode leaves index_ empty.
  bool indexed_ = false;
  std::vector<std::string> bg_models_;  ///< distinct bg models, sorted
  std::optional<ClusterIndex> index_;
  std::vector<int> touched_;  ///< GPUs changed since the last invariant check

  int lends_ = 0;
  int reclaims_ = 0;
  int max_jobs_per_gpu_ = 0;
  std::int64_t dispatches_ = 0;  ///< committed placement decisions

  /// Decision trace sink; nullptr = record nothing (one branch per hook).
  TraceRecorder* trace_ = nullptr;

  double busy_ = 0.0;         ///< current busy-GPU total (0..num_gpus)
  double util_last_t_ = 0.0;
  double util_integral_ = 0.0;
  std::vector<std::pair<double, double>> util_steps_;  ///< (t, busy fraction)
};

Shape Engine::resolve_shape(const JobSpec& spec) {
  const bool fg = spec.qos == QosClass::kForeground;
  // The cache key is exactly the planner's input set. Background trainers
  // are always the single-GPU data-parallel profile, so their amp_limit and
  // pow2 knobs are canonicalized out of the key — two bg mix entries that
  // differ only there share one plan.
  core::PlanCacheKey key;
  key.model = spec.model;
  key.network = config_.network;
  key.global_batch = spec.global_batch;
  key.amp_limit = fg ? spec.amp_limit : 0.0;
  key.gpu_candidates = fg ? config_.num_gpus : 1;
  key.pow2_only = fg ? config_.pow2_only : true;
  key.data_parallel = !fg;
  const auto compute = [&]() -> core::TrainingPlan {
    const models::ModelGraph model = models::zoo::by_name(spec.model);
    if (fg) {
      const core::ProfileSet profiles(
          model, cost_, network_,
          core::ProfileOptions{config_.num_gpus, spec.global_batch,
                               config_.pow2_only});
      return core::Planner(profiles).plan({spec.amp_limit});
    }
    const core::ProfileSet profiles(
        model, cost_, network_,
        core::ProfileOptions{1, spec.global_batch, true});
    return core::data_parallel_plan(profiles, 1);
  };
  core::PlanCache::PlanPtr plan;
  if (plan_cache_ != nullptr) {
    bool hit = false;
    plan = plan_cache_->plan(key, compute, options_.cancel, &hit);
    (hit ? plan_hits_ : plan_misses_).fetch_add(1, std::memory_order_relaxed);
  } else {
    plan = std::make_shared<const core::TrainingPlan>(compute());
  }

  Shape shape;
  if (fg) {
    shape.gpus = std::max(1, plan->peak_gpus());
    shape.iso_iter_s = plan->est_iteration_s;
    // The slack DeepPool lends: fraction of the job's GPU-time reservation
    // its bursty plan leaves idle each iteration.
    const double reserved = static_cast<double>(shape.gpus) * shape.iso_iter_s;
    if (reserved > 0.0) {
      shape.idle_frac =
          std::clamp(1.0 - plan->gpu_sec() / reserved, 0.0, 0.95);
    }
  } else {
    shape.gpus = 1;
    shape.iso_iter_s = plan->est_iteration_s;
  }
  if (!(shape.iso_iter_s > 0.0)) {
    throw std::runtime_error("resolved zero iteration time for model \"" +
                             spec.model + "\"");
  }
  return shape;
}

calib::GpuShape Engine::shape_key(const Job& fg) const {
  // Measurements are keyed by the cluster the plan was laid out against and
  // the job's amplification allowance — the knobs that set how much burst
  // slack the plan leaves (see calib::GpuShape).
  return calib::GpuShape{config_.num_gpus, fg.spec.amp_limit};
}

/// `count` separates decision pricing from speculation: lookups that price
/// a committed decision bump the calibration hit/miss counters; speculative
/// probes (lend-rate shopping) go through peek() so the counters stay a
/// property of the schedule, not of how the core scans (see
/// InterferenceModel::peek).
calib::PairFactors Engine::pair_factors(const Job& fg, const Job& bg,
                                        bool count) const {
  return count
             ? interference_.factors(fg.spec.model, bg.spec.model,
                                     shape_key(fg))
             : interference_.peek(fg.spec.model, bg.spec.model, shape_key(fg));
}

/// Summed fractional slowdown the fg job's current tenants inflict; each
/// tenant is priced per pair, so two different background models on two of
/// the job's GPUs charge two different costs.
double Engine::shared_interference(const Job& fg, bool count) const {
  double sum = 0.0;
  for (int g : fg.gpu_ids) {
    const int b = gpus_[static_cast<std::size_t>(g)].bg;
    if (b >= 0) {
      sum += pair_factors(fg, jobs_[static_cast<std::size_t>(b)], count)
                 .fg_slowdown;
    }
  }
  return sum;
}

/// The per-pair lend evaluator behind PolicyContext: the rate a background
/// job of `bg_model` would get if lent GPU `gpu` right now, 0 when lending
/// is refused (no fg owner, tenant present, or the projected fg slowdown —
/// existing tenants plus this candidate — would break the QoS bound).
/// Speculative (the policy is still shopping), so uncounted throughout.
double Engine::lend_rate_for(const std::string& bg_model, int gpu) const {
  const Gpu& slot = gpus_[static_cast<std::size_t>(gpu)];
  if (slot.fg < 0 || slot.bg >= 0) return 0.0;
  const Job& fg = jobs_[static_cast<std::size_t>(slot.fg)];
  const calib::PairFactors f =
      interference_.peek(fg.spec.model, bg_model, shape_key(fg));
  const double projected =
      1.0 + (shared_interference(fg, /*count=*/false) + f.fg_slowdown) /
                static_cast<double>(fg.shape.gpus);
  const double rate = fg.shape.idle_frac * f.bg_efficiency;
  return rate > 0.0 && projected <= config_.qos_fg_slowdown ? rate : 0.0;
}

/// Pushes one GPU's occupancy into the index and marks it for the next
/// invariant check. Call after every gpus_[g] change (indexed core).
void Engine::sync_gpu(int gpu) {
  if (!indexed_) return;
  const Gpu& slot = gpus_[static_cast<std::size_t>(gpu)];
  index_->update_gpu(gpu, slot.fg >= 0, slot.bg >= 0);
  touched_.push_back(gpu);
}

/// Recomputes the lend offers on a foreground job's GPUs — the exact values
/// lend_rate_for would return there. Must run whenever the host's tenant
/// set changes (shared interference moves every projection) or a GPU of its
/// changes occupancy: fg dispatch (new host, possibly with demoted
/// tenants), lent-bg dispatch, and lent-bg completion. Host completion
/// instead clears offers through sync_gpu.
void Engine::refresh_host_lend(const Job& fg) {
  if (!indexed_) return;
  const double shared = shared_interference(fg, /*count=*/false);
  const calib::GpuShape key = shape_key(fg);
  for (int g : fg.gpu_ids) {
    index_->clear_lend_rates(g);
    if (gpus_[static_cast<std::size_t>(g)].bg >= 0) continue;
    for (std::size_t m = 0; m < bg_models_.size(); ++m) {
      const calib::PairFactors f =
          interference_.peek(fg.spec.model, bg_models_[m], key);
      const double projected = 1.0 + (shared + f.fg_slowdown) /
                                         static_cast<double>(fg.shape.gpus);
      const double rate = fg.shape.idle_frac * f.bg_efficiency;
      if (rate > 0.0 && projected <= config_.qos_fg_slowdown) {
        index_->set_lend_rate(g, static_cast<int>(m), rate);
      }
    }
  }
}

/// Queues a job at the back (arrival order) in whichever structure the
/// active core reads.
void Engine::enqueue_back(int id) {
  if (indexed_) {
    Job& job = jobs_[static_cast<std::size_t>(id)];
    job.queue_seq = index_->push_back(id, job.foreground(), job.shape.gpus,
                                      job.spec.model);
  } else {
    queue_.push_back(id);
  }
}

/// Re-queues an evicted job ahead of everything pending (the reference
/// core's vector::insert(begin()) semantics).
void Engine::enqueue_front(int id) {
  if (indexed_) {
    Job& job = jobs_[static_cast<std::size_t>(id)];
    job.queue_seq = index_->push_front(id, job.foreground(), job.shape.gpus,
                                       job.spec.model);
  } else {
    queue_.insert(queue_.begin(), id);
  }
}

std::vector<GpuView> Engine::gpu_views() const {
  // Occupancy only; lending is priced per pair through the PolicyContext
  // evaluator, so there is no meaningful per-GPU rate to precompute here.
  std::vector<GpuView> views(gpus_.size());
  for (std::size_t g = 0; g < gpus_.size(); ++g) {
    views[g].fg_job = gpus_[g].fg;
    views[g].bg_job = gpus_[g].bg;
  }
  return views;
}

/// "j<id> <model>" — the label every per-job trace event carries.
std::string job_label(const JobSpec& spec) {
  std::string label = "j";
  label += std::to_string(spec.id);
  label += ' ';
  label += spec.model;
  return label;
}

/// One decision marker at the current simulated time. Only called behind a
/// trace_ check, so the untraced path never builds the label string.
void Engine::trace_instant(const char* cat, const Job& job) {
  trace_->instant(0, job.foreground() ? 0 : 1, job_label(job.spec), cat,
                  sim_.now());
}

/// Samples the simulator's event-queue depth into the registry gauge (and
/// the trace's counter series when recording) once per dispatch round.
void Engine::note_queue_depth() {
  static obs::Gauge& depth_gauge =
      obs::registry().gauge("sched/event_queue_depth");
  const double depth = static_cast<double>(sim_.pending());
  depth_gauge.set(depth);
  if (trace_ != nullptr) {
    trace_->counter(0, "event_queue_depth", sim_.now(), depth);
  }
}

void Engine::settle(Job& job) {
  const double now = sim_.now();
  job.remaining_iters =
      std::max(0.0, job.remaining_iters - (now - job.last_settle_s) * job.rate);
  job.last_settle_s = now;
}

void Engine::set_rate(Job& job) {
  settle(job);
  if (job.state != State::kRunning) {
    job.rate = 0.0;
    return;
  }
  if (job.foreground()) {
    const double slowdown =
        1.0 + shared_interference(job) / static_cast<double>(job.shape.gpus);
    job.rate = 1.0 / (job.shape.iso_iter_s * slowdown);
  } else if (job.lent) {
    const Job& host = jobs_[static_cast<std::size_t>(job.host_fg)];
    job.rate = host.shape.idle_frac * pair_factors(host, job).bg_efficiency /
               job.shape.iso_iter_s;
  } else {
    job.rate = 1.0 / job.shape.iso_iter_s;
  }
  if (job.completion != 0) {
    sim_.cancel(job.completion);
    job.completion = 0;
  }
  if (job.rate > 0.0) {
    const double eta =
        job.remaining_iters <= kRemainingEps ? 0.0
                                             : job.remaining_iters / job.rate;
    const int id = job.spec.id;
    job.completion =
        sim_.schedule_after(eta, [this, id] { on_complete(id); });
  }
}

void Engine::reclaim_tenant(int bg_id, int gpu, Job& incoming_fg,
                            bool demote) {
  Job& bg = jobs_[static_cast<std::size_t>(bg_id)];
  settle(bg);
  if (demote) {
    // The tenant stays on its GPU, collocated under the arriving foreground
    // job at idle-phase rate. Rates are recomputed by the caller once the
    // foreground occupies its GPUs.
    bg.lent = true;
    bg.host_fg = incoming_fg.spec.id;
  } else {
    // Evict: progress is preserved, the job re-queues at the front.
    if (bg.completion != 0) {
      sim_.cancel(bg.completion);
      bg.completion = 0;
    }
    gpus_[static_cast<std::size_t>(gpu)].bg = -1;
    bg.state = State::kQueued;
    bg.gpu_ids.clear();
    bg.lent = false;
    bg.host_fg = -1;
    bg.rate = 0.0;
    enqueue_front(bg_id);
  }
  ++bg.reclaims;
  ++reclaims_;
  if (trace_ != nullptr) trace_instant("sched/reclaim", bg);
}

void Engine::dispatch(int job_id, const Placement& placement) {
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  const double now = sim_.now();
  if (job.foreground()) {
    // Reclaim dedicated background tenants standing on the chosen GPUs:
    // demote to collocated where the QoS bound and a non-zero lending rate
    // allow it, evict back to the queue otherwise. Each tenant is priced
    // per pair against the arriving foreground model.
    double kept_interference = 0.0;
    for (int g : placement.gpu_ids) {
      const int b = gpus_[static_cast<std::size_t>(g)].bg;
      if (b < 0) continue;
      const calib::PairFactors f =
          pair_factors(job, jobs_[static_cast<std::size_t>(b)]);
      const double projected =
          1.0 + (kept_interference + f.fg_slowdown) /
                    static_cast<double>(job.shape.gpus);
      const double rate = job.shape.idle_frac * f.bg_efficiency;
      const bool demote =
          rate > 0.0 && projected <= config_.qos_fg_slowdown;
      reclaim_tenant(b, g, job, demote);
      if (demote) kept_interference += f.fg_slowdown;
    }
    for (int g : placement.gpu_ids) {
      gpus_[static_cast<std::size_t>(g)].fg = job_id;
    }
  } else {
    const int g = placement.gpu_ids.front();
    gpus_[static_cast<std::size_t>(g)].bg = job_id;
    job.lent = placement.lent;
    job.host_fg = placement.lent ? gpus_[static_cast<std::size_t>(g)].fg : -1;
    if (placement.lent) ++lends_;
  }
  job.state = State::kRunning;
  job.gpu_ids = placement.gpu_ids;
  if (job.start_s < 0.0) job.start_s = now;
  job.last_settle_s = now;
  set_rate(job);
  if (job.foreground()) {
    // Demoted tenants and collocation change the rates on these GPUs.
    for (int g : job.gpu_ids) {
      const int b = gpus_[static_cast<std::size_t>(g)].bg;
      if (b >= 0) set_rate(jobs_[static_cast<std::size_t>(b)]);
    }
  } else if (job.lent) {
    set_rate(jobs_[static_cast<std::size_t>(job.host_fg)]);
  }
  for (int g : job.gpu_ids) sync_gpu(g);
  if (job.foreground()) {
    refresh_host_lend(job);
  } else if (job.lent) {
    // A new tenant shifts the host's shared interference, repricing the
    // projections on its other GPUs.
    refresh_host_lend(jobs_[static_cast<std::size_t>(job.host_fg)]);
  }
  ++dispatches_;
  if (trace_ != nullptr) trace_instant("sched/dispatch", job);
}

void Engine::try_dispatch() {
  if (indexed_) {
    while (!index_->queue_empty()) {
      const auto decision = policy_->select_indexed(*index_);
      if (!decision) break;
      const Job& job = jobs_[static_cast<std::size_t>(decision->job_id)];
      index_->remove(job.queue_seq);
      dispatch(decision->job_id, decision->placement);
    }
    update_util();
    check_invariants();
    note_queue_depth();
    return;
  }
  PolicyContext ctx;
  ctx.lend_rate = [this](const JobView& job, int gpu) {
    return lend_rate_for(job.model, gpu);
  };
  for (;;) {
    if (queue_.empty()) break;
    std::vector<JobView> queue_views;
    queue_views.reserve(queue_.size());
    for (int id : queue_) {
      const Job& job = jobs_[static_cast<std::size_t>(id)];
      queue_views.push_back(
          JobView{id, job.foreground(), job.shape.gpus, job.spec.model});
    }
    const auto decision = policy_->select(queue_views, gpu_views(), ctx);
    if (!decision) break;
    const int job_id = queue_[static_cast<std::size_t>(decision->queue_index)];
    queue_.erase(queue_.begin() + decision->queue_index);
    dispatch(job_id, decision->placement);
  }
  update_util();
  check_invariants();
  note_queue_depth();
}

void Engine::on_arrival(int id) {
  Job& job = jobs_[static_cast<std::size_t>(id)];
  job.state = State::kQueued;
  if (trace_ != nullptr) trace_instant("sched/arrival", job);
  enqueue_back(id);
  try_dispatch();
}

void Engine::on_complete(int id) {
  Job& job = jobs_[static_cast<std::size_t>(id)];
  settle(job);
  job.remaining_iters = 0.0;
  job.state = State::kDone;
  job.finish_s = sim_.now();
  job.completion = 0;
  job.rate = 0.0;
  if (trace_ != nullptr) {
    trace_instant("sched/complete", job);
    // The job's whole residency as a span: row = its first GPU (pid 1+g so
    // GPU 0 does not collide with the scheduler's own pid-0 rows), lane 0
    // for foreground, 1 for background.
    trace_->record(1 + job.gpu_ids.front(), job.foreground() ? 0 : 1,
                   job_label(job.spec), "sched/job", job.start_s,
                   job.finish_s - job.start_s);
  }
  if (job.foreground()) {
    for (int g : job.gpu_ids) {
      gpus_[static_cast<std::size_t>(g)].fg = -1;
      const int b = gpus_[static_cast<std::size_t>(g)].bg;
      if (b >= 0) {
        // Promote the lent tenant: the GPU is now fully its own.
        Job& bg = jobs_[static_cast<std::size_t>(b)];
        bg.lent = false;
        bg.host_fg = -1;
        set_rate(bg);
      }
      sync_gpu(g);
    }
  } else {
    const int g = job.gpu_ids.front();
    gpus_[static_cast<std::size_t>(g)].bg = -1;
    const int f = gpus_[static_cast<std::size_t>(g)].fg;
    sync_gpu(g);
    if (f >= 0) {
      Job& host = jobs_[static_cast<std::size_t>(f)];
      set_rate(host);
      // The departed tenant frees idle-phase slack and lowers the host's
      // shared interference: its GPUs are lendable again at new rates.
      refresh_host_lend(host);
    }
  }
  job.gpu_ids.clear();
  try_dispatch();
}

double Engine::cluster_busy() const {
  double busy = 0.0;
  for (const Gpu& gpu : gpus_) {
    if (gpu.fg >= 0) {
      const Job& fg = jobs_[static_cast<std::size_t>(gpu.fg)];
      double u = 1.0 - fg.shape.idle_frac;
      if (gpu.bg >= 0) {
        const Job& bg = jobs_[static_cast<std::size_t>(gpu.bg)];
        u = std::min(
            1.0, u + fg.shape.idle_frac * pair_factors(fg, bg).bg_efficiency);
      }
      busy += u;
    } else if (gpu.bg >= 0) {
      busy += 1.0;
    }
  }
  return busy;
}

void Engine::update_util() {
  const double now = sim_.now();
  util_integral_ += busy_ * (now - util_last_t_);
  util_last_t_ = now;
  busy_ = cluster_busy();
  const double frac = busy_ / static_cast<double>(config_.num_gpus);
  if (!util_steps_.empty() && util_steps_.back().first == now) {
    util_steps_.back().second = frac;
  } else {
    util_steps_.emplace_back(now, frac);
    if (util_steps_.size() >= kUtilStepCap) compress_util_steps();
  }
}

/// Halves the step curve by merging adjacent pairs into one step carrying
/// their time-weighted mean, so the curve's integral over each merged span
/// is preserved. The trailing step (whose right edge is still open) stays
/// exact. Deterministic, and identical in both cores.
void Engine::compress_util_steps() {
  std::vector<std::pair<double, double>> merged;
  merged.reserve(util_steps_.size() / 2 + 2);
  const std::size_t n = util_steps_.size();
  std::size_t i = 0;
  while (i + 2 < n) {
    const double t0 = util_steps_[i].first;
    const double t1 = util_steps_[i + 1].first;
    const double t2 = util_steps_[i + 2].first;
    const double span = t2 - t0;
    const double value =
        span > 0.0 ? (util_steps_[i].second * (t1 - t0) +
                      util_steps_[i + 1].second * (t2 - t1)) /
                         span
                   : util_steps_[i + 1].second;
    merged.emplace_back(t0, value);
    i += 2;
  }
  for (; i < n; ++i) merged.push_back(util_steps_[i]);
  util_steps_.swap(merged);
}

void Engine::check_invariants() {
  if (indexed_) {
    // Occupancy only changes on GPUs the dispatch round touched, so
    // checking those is as strong as the full sweep — and keeps the
    // running max_jobs_per_gpu_ identical — at O(changes), not O(GPUs).
    for (int g : touched_) check_gpu_invariant(static_cast<std::size_t>(g));
    touched_.clear();
    return;
  }
  for (std::size_t g = 0; g < gpus_.size(); ++g) check_gpu_invariant(g);
}

void Engine::check_gpu_invariant(std::size_t g) {
  const Gpu& gpu = gpus_[g];
  int occupancy = 0;
  if (gpu.fg >= 0) {
    ++occupancy;
    const Job& fg = jobs_[static_cast<std::size_t>(gpu.fg)];
    if (fg.state != State::kRunning ||
        std::find(fg.gpu_ids.begin(), fg.gpu_ids.end(),
                  static_cast<int>(g)) == fg.gpu_ids.end()) {
      throw std::logic_error("scheduler invariant: stale fg owner on GPU " +
                             std::to_string(g));
    }
  }
  if (gpu.bg >= 0) {
    ++occupancy;
    const Job& bg = jobs_[static_cast<std::size_t>(gpu.bg)];
    if (bg.state != State::kRunning || bg.gpu_ids.size() != 1 ||
        bg.gpu_ids.front() != static_cast<int>(g)) {
      throw std::logic_error("scheduler invariant: stale bg tenant on GPU " +
                             std::to_string(g));
    }
    if (gpu.fg >= 0 && (!bg.lent || bg.host_fg != gpu.fg)) {
      throw std::logic_error(
          "scheduler invariant: collocated bg is not lent to its host on "
          "GPU " +
          std::to_string(g));
    }
    if (gpu.fg < 0 && bg.lent) {
      throw std::logic_error(
          "scheduler invariant: lent bg without a foreground host on GPU " +
          std::to_string(g));
    }
  }
  max_jobs_per_gpu_ = std::max(max_jobs_per_gpu_, occupancy);
}

ScheduleResult Engine::run() {
  // Resolve every job's execution shape before the event simulation starts.
  // Shape resolution is the planner-DP hot path and each job is
  // independent, so it fans out across the pool; the plan cache's
  // single-flight lookups keep hit/miss counts deterministic regardless of
  // worker count, and each worker writes only its own index slot. The
  // simulation itself stays single-threaded (it is event-ordered).
  std::vector<Shape> shapes(specs_.size());
  std::optional<util::ThreadPool> local_pool;
  if (options_.pool == nullptr) {
    local_pool.emplace(util::clamp_jobs(options_.jobs, specs_.size()));
  }
  util::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : *local_pool;
  pool.parallel_for(
      specs_.size(),
      [&](std::size_t i) { shapes[i] = resolve_shape(specs_[i]); },
      options_.cancel);
  jobs_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    Job job;
    job.spec = specs_[i];
    job.shape = shapes[i];
    job.remaining_iters = static_cast<double>(specs_[i].iterations);
    jobs_.push_back(std::move(job));
  }
  if (indexed_) {
    // Lend offers bucket per background model, so the index needs the
    // distinct set up front (sorted: deterministic bucket numbering).
    std::set<std::string> models;
    for (const Job& job : jobs_) {
      if (!job.foreground()) models.insert(job.spec.model);
    }
    bg_models_.assign(models.begin(), models.end());
    index_.emplace(config_.num_gpus, bg_models_);
  } else {
    queue_.reserve(jobs_.size());
  }
  for (const Job& job : jobs_) {
    const int id = job.spec.id;
    sim_.schedule_at(job.spec.arrival_s, [this, id] { on_arrival(id); });
  }
  if (options_.cancel == nullptr) {
    // The no-deadline fast path: one call, zero polls, byte-identical to
    // the pre-cancellation engine.
    sim_.run(config_.max_sim_time_s);
  } else {
    // Poll between events only: an event handler never observes the token,
    // so a cancelled run stops at an event boundary with every scheduler
    // invariant intact and the tallies below internally consistent.
    for (;;) {
      if (options_.cancel->cancelled()) {
        throw util::CancelledError(options_.cancel->reason(),
                                   partial_metrics());
      }
      if (!sim_.step(config_.max_sim_time_s)) break;
    }
  }
  for (const Job& job : jobs_) {
    if (job.state != State::kDone) {
      throw std::runtime_error(
          "schedule did not complete: job " + std::to_string(job.spec.id) +
          " still " +
          (job.state == State::kRunning ? "running" : "queued") +
          " at t=" + std::to_string(sim_.now()) + "s (max_sim_time_s=" +
          std::to_string(config_.max_sim_time_s) + ")");
    }
  }
  return finalize();
}

/// The fleet tallies that are final at an event boundary — what a
/// deadline-exceeded response can still truthfully report. Only counts and
/// clocks: per-job outcomes and derived aggregates (slowdowns, goodput)
/// need the full trace and are deliberately absent.
Json Engine::partial_metrics() const {
  int completed = 0;
  for (const Job& job : jobs_) {
    if (job.state == State::kDone) ++completed;
  }
  Json::Object partial;
  partial["sim_time_s"] = Json(sim_.now());
  partial["events_executed"] =
      Json(static_cast<double>(sim_.executed()));
  partial["jobs_total"] = Json(static_cast<double>(jobs_.size()));
  partial["jobs_completed"] = Json(static_cast<double>(completed));
  partial["lends"] = Json(static_cast<double>(lends_));
  partial["reclaims"] = Json(static_cast<double>(reclaims_));
  partial["dispatches"] = Json(static_cast<double>(dispatches_));
  return Json(std::move(partial));
}

ScheduleResult Engine::finalize() {
  ScheduleResult result;
  result.policy = config_.policy;
  result.seed = seed_;
  result.jobs.reserve(jobs_.size());

  // Exact below the cap (byte-identical to the old store-everything
  // Summary path), O(1)-memory P-square estimators beyond it.
  StreamingSummary fg_slow({95.0}, options_.metrics_exact_cap);
  StreamingSummary bg_slow({95.0}, options_.metrics_exact_cap);
  StreamingSummary delays({95.0}, options_.metrics_exact_cap);
  double makespan = 0.0;
  double total_samples = 0.0;
  for (const Job& job : jobs_) {
    JobOutcome out;
    out.id = job.spec.id;
    out.model = job.spec.model;
    out.qos = job.spec.qos;
    out.gpus = job.shape.gpus;
    out.arrival_s = job.spec.arrival_s;
    out.start_s = job.start_s;
    out.finish_s = job.finish_s;
    out.queue_delay_s = job.start_s - job.spec.arrival_s;
    out.jct_s = job.finish_s - job.spec.arrival_s;
    out.isolated_run_s =
        static_cast<double>(job.spec.iterations) * job.shape.iso_iter_s;
    out.slowdown = (job.finish_s - job.start_s) / out.isolated_run_s;
    out.samples = static_cast<double>(job.spec.iterations) *
                  static_cast<double>(job.spec.global_batch);
    out.reclaims = job.reclaims;

    (job.foreground() ? fg_slow : bg_slow).add(out.slowdown);
    delays.add(out.queue_delay_s);
    makespan = std::max(makespan, job.finish_s);
    total_samples += out.samples;
    if (job.foreground()) ++result.fleet.fg_jobs;
    else ++result.fleet.bg_jobs;
    result.jobs.push_back(std::move(out));
  }

  FleetMetrics& fleet = result.fleet;
  fleet.makespan_s = makespan;
  fleet.jobs_completed = static_cast<int>(jobs_.size());
  fleet.goodput_samples_per_s = makespan > 0.0 ? total_samples / makespan : 0.0;
  if (!fg_slow.empty()) {
    fleet.fg_mean_slowdown = fg_slow.mean();
    fleet.fg_p95_slowdown = fg_slow.percentile(95.0);
  }
  if (!bg_slow.empty()) fleet.bg_mean_slowdown = bg_slow.mean();
  if (!delays.empty()) {
    fleet.mean_queue_delay_s = delays.mean();
    fleet.p95_queue_delay_s = delays.percentile(95.0);
  }
  fleet.lends = lends_;
  fleet.reclaims = reclaims_;
  fleet.max_jobs_per_gpu = max_jobs_per_gpu_;
  fleet.qos_met = fleet.fg_p95_slowdown <= config_.qos_fg_slowdown;
  fleet.calibrated = interference_.calibrated();
  fleet.calib_hits = static_cast<int>(interference_.hits());
  fleet.calib_misses = static_cast<int>(interference_.misses());
  fleet.plan_cache_hits = plan_hits_.load(std::memory_order_relaxed);
  fleet.plan_cache_misses = plan_misses_.load(std::memory_order_relaxed);

  // Close the utilization integral at the makespan and bin the step curve.
  util_integral_ += busy_ * (makespan - util_last_t_);
  if (makespan > 0.0) {
    fleet.gpu_utilization =
        util_integral_ / (static_cast<double>(config_.num_gpus) * makespan);
    const int nbins = config_.util_timeline_bins;
    const double width = makespan / static_cast<double>(nbins);
    std::vector<double> bins(static_cast<std::size_t>(nbins), 0.0);
    for (std::size_t i = 0; i < util_steps_.size(); ++i) {
      const double seg_lo = util_steps_[i].first;
      const double seg_hi = i + 1 < util_steps_.size()
                                ? util_steps_[i + 1].first
                                : makespan;
      const double value = util_steps_[i].second;
      if (seg_hi <= seg_lo) continue;
      const int first = std::clamp(
          static_cast<int>(seg_lo / width), 0, nbins - 1);
      const int last = std::clamp(
          static_cast<int>((seg_hi - 1e-12) / width), 0, nbins - 1);
      for (int b = first; b <= last; ++b) {
        const double lo = std::max(seg_lo, width * b);
        const double hi = std::min(seg_hi, width * (b + 1));
        if (hi > lo) bins[static_cast<std::size_t>(b)] += value * (hi - lo);
      }
    }
    for (double& b : bins) b /= width;
    fleet.util_timeline = std::move(bins);
  }

  // Mirror this run's tallies into the process registry in one pass, after
  // the simulation: zero inner-loop cost, and the placement-delay histogram
  // is fed in id order from simulated time, so its snapshot is byte-stable
  // at any worker count.
  obs::Registry& reg = obs::registry();
  reg.counter("sched/arrivals").inc(static_cast<std::int64_t>(jobs_.size()));
  reg.counter("sched/jobs_completed").inc(fleet.jobs_completed);
  reg.counter("sched/lends").inc(lends_);
  reg.counter("sched/reclaims").inc(reclaims_);
  reg.counter("sched/decisions/" + config_.policy).inc(dispatches_);
  reg.counter("sched/calib_hits").inc(fleet.calib_hits);
  reg.counter("sched/calib_misses").inc(fleet.calib_misses);
  obs::Histogram& delay_hist = reg.histogram("sched/placement_delay_s");
  for (const JobOutcome& out : result.jobs) {
    delay_hist.observe(out.queue_delay_s);
  }

  DP_INFO << "schedule done: policy=" << result.policy
          << " jobs=" << fleet.jobs_completed
          << " goodput=" << fleet.goodput_samples_per_s
          << " fg_p95_slowdown=" << fleet.fg_p95_slowdown
          << " util=" << fleet.gpu_utilization;
  return result;
}

}  // namespace

ScheduleResult run_schedule(const WorkloadSpec& workload,
                            const ScheduleConfig& config,
                            const ScheduleRunOptions& options) {
  validate_config(config);
  // A shared pool supersedes the jobs knob, so only the pool-less path
  // validates it.
  if (options.pool == nullptr && options.jobs < 1) {
    throw std::invalid_argument("schedule needs jobs >= 1 (got " +
                                std::to_string(options.jobs) + ")");
  }
  if (options.core != "indexed" && options.core != "reference") {
    throw std::invalid_argument("unknown scheduler core \"" + options.core +
                                "\"; valid cores: indexed | reference");
  }
  Engine engine(workload, config, options);
  return engine.run();
}

ScheduleResult run_schedule(const ScheduleSpec& spec,
                            const ScheduleRunOptions& options) {
  return run_schedule(spec.workload, spec.config, options);
}

ScheduleSpec schedule_spec_from_json(const Json& j) {
  if (!j.is_object()) {
    throw std::runtime_error("ScheduleSpec must be a JSON object");
  }
  const std::string kind = runtime::spec_kind(j);
  if (kind != "schedule" && j.contains("kind")) {
    throw std::runtime_error(
        "spec kind \"" + kind + "\" is not a schedule spec" +
        (kind == "calibration" ? "; run it with `deeppool calibrate`" : ""));
  }
  // A plain scenario file (or arbitrary JSON) must not silently run as an
  // all-defaults schedule: demand the tag or an explicit workload block.
  if (!j.contains("kind") && !j.contains("workload")) {
    throw std::runtime_error(
        "not a schedule spec: expected \"kind\": \"schedule\" or a "
        "\"workload\" block");
  }
  ScheduleSpec spec;
  spec.name = str_or(j, "name", spec.name);
  if (j.contains("workload")) {
    spec.workload = workload_spec_from_json(j.at("workload"));
  }
  if (j.contains("cluster")) {
    spec.config = config_from_json(j.at("cluster"));
  }
  validate_config(spec.config);
  return spec;
}

Json to_json(const ScheduleSpec& spec) {
  Json j;
  j["kind"] = Json("schedule");
  j["name"] = Json(spec.name);
  j["workload"] = to_json(spec.workload);
  j["cluster"] = to_json_config(spec.config);
  return j;
}

Json to_json(const JobOutcome& job) {
  Json j;
  j["id"] = Json(job.id);
  j["model"] = Json(job.model);
  j["qos"] = Json(to_string(job.qos));
  j["gpus"] = Json(job.gpus);
  j["arrival_s"] = Json(job.arrival_s);
  j["start_s"] = Json(job.start_s);
  j["finish_s"] = Json(job.finish_s);
  j["queue_delay_s"] = Json(job.queue_delay_s);
  j["jct_s"] = Json(job.jct_s);
  j["isolated_run_s"] = Json(job.isolated_run_s);
  j["slowdown"] = Json(job.slowdown);
  j["samples"] = Json(job.samples);
  j["reclaims"] = Json(job.reclaims);
  return j;
}

Json to_json(const ScheduleResult& result) {
  Json j;
  j["policy"] = Json(result.policy);
  j["seed"] = Json(static_cast<std::int64_t>(result.seed));
  Json fleet;
  const FleetMetrics& f = result.fleet;
  fleet["makespan_s"] = Json(f.makespan_s);
  fleet["goodput_samples_per_s"] = Json(f.goodput_samples_per_s);
  fleet["fg_mean_slowdown"] = Json(f.fg_mean_slowdown);
  fleet["fg_p95_slowdown"] = Json(f.fg_p95_slowdown);
  fleet["bg_mean_slowdown"] = Json(f.bg_mean_slowdown);
  fleet["mean_queue_delay_s"] = Json(f.mean_queue_delay_s);
  fleet["p95_queue_delay_s"] = Json(f.p95_queue_delay_s);
  fleet["gpu_utilization"] = Json(f.gpu_utilization);
  Json::Array timeline;
  for (double u : f.util_timeline) timeline.push_back(Json(u));
  fleet["util_timeline"] = Json(std::move(timeline));
  fleet["jobs_completed"] = Json(f.jobs_completed);
  fleet["fg_jobs"] = Json(f.fg_jobs);
  fleet["bg_jobs"] = Json(f.bg_jobs);
  fleet["lends"] = Json(f.lends);
  fleet["reclaims"] = Json(f.reclaims);
  fleet["max_jobs_per_gpu"] = Json(f.max_jobs_per_gpu);
  fleet["qos_met"] = Json(f.qos_met);
  fleet["calibrated"] = Json(f.calibrated);
  fleet["calib_hits"] = Json(f.calib_hits);
  fleet["calib_misses"] = Json(f.calib_misses);
  fleet["plan_cache_hits"] = Json(f.plan_cache_hits);
  fleet["plan_cache_misses"] = Json(f.plan_cache_misses);
  j["fleet"] = std::move(fleet);
  Json::Array jobs;
  for (const JobOutcome& job : result.jobs) jobs.push_back(to_json(job));
  j["jobs"] = Json(std::move(jobs));
  return j;
}

}  // namespace deeppool::sched
