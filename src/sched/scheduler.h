// Multi-tenant cluster scheduler: jobs arrive, queue, run, and depart.
//
// Layered on the sim::Simulator event core. Each arriving job is resolved
// into a concrete execution shape with the same machinery the CLI's `plan`
// subcommand uses: foreground jobs get a burst-parallel TrainingPlan from
// core::Planner (GPU demand = peak_gpus, isolated iteration time = the
// planner's critical-path estimate, idle fraction = 1 - GPUsec/(peak*iter) —
// the very slack DeepPool lends out), background jobs get the single-GPU
// data-parallel profile. Shape resolution is memoized through a
// core::PlanCache (traces draw from a handful of distinct shapes, so a
// 5k-job trace plans each shape once, not 5k times) and fans out across a
// util::ThreadPool before the — always single-threaded — event simulation
// starts; see ScheduleRunOptions. Execution is fluid: a running job progresses at
// 1/(iso_iter * slowdown) iterations per second, where slowdown follows the
// current sharing state priced per (fg model, bg model) pair through a
// calib::InterferenceModel — measured InterferenceTable entries when a
// calibration cache is loaded, analytic MultiplexConfig-derived factors
// (each enabled Fig.-11 mechanism shrinks the interference) otherwise.
// Placement is delegated to a pluggable policy (policies.h); per-job and
// fleet metrics aggregate through util/summary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "calib/interference.h"
#include "core/plan_cache.h"
#include "runtime/multiplex.h"
#include "sched/workload.h"
#include "util/cancel.h"
#include "util/json.h"

namespace deeppool {
class TraceRecorder;
}  // namespace deeppool

namespace deeppool::util {
class ThreadPool;
}  // namespace deeppool::util

namespace deeppool::sched {

/// Cluster + policy knobs (JSON key: "cluster").
struct ScheduleConfig {
  int num_gpus = 16;
  std::string policy = "burst_lending";
  /// QoS bound: lending is refused where the projected foreground slowdown
  /// would exceed this factor; fleet metrics report compliance against it.
  double qos_fg_slowdown = 1.25;
  std::string network = "nvswitch";  ///< net::NetworkSpec::from_name()
  bool pow2_only = true;             ///< planner profile candidates
  runtime::MultiplexConfig mux;      ///< informs interference factors
  /// Measured per-pair interference (the cache `deeppool calibrate`
  /// produces). Lookups key on (fg model, bg model, {num_gpus, job
  /// amp_limit}); pairs missing from the table fall back to the analytic
  /// mux-derived factors. Empty table = fully analytic run.
  calib::InterferenceTable calibration;
  int util_timeline_bins = 24;       ///< GPU-utilization timeline resolution
  double max_sim_time_s = 1e6;       ///< hard safety cap
};

/// Per-job record in the result.
struct JobOutcome {
  int id = -1;
  std::string model;
  QosClass qos = QosClass::kForeground;
  int gpus = 1;               ///< GPUs the job occupies while running
  double arrival_s = 0.0;
  double start_s = 0.0;       ///< first dispatch
  double finish_s = 0.0;
  double queue_delay_s = 0.0; ///< start - arrival
  double jct_s = 0.0;         ///< finish - arrival
  double isolated_run_s = 0.0;///< iterations * isolated iteration time
  double slowdown = 1.0;      ///< (finish - start) / isolated_run_s
  double samples = 0.0;       ///< iterations * batch (goodput contribution)
  int reclaims = 0;           ///< times this bg job lost its dedicated GPU
};

/// Fleet-wide aggregates over one schedule run.
struct FleetMetrics {
  double makespan_s = 0.0;
  double goodput_samples_per_s = 0.0;  ///< total samples / makespan
  double fg_mean_slowdown = 1.0;
  double fg_p95_slowdown = 1.0;
  double bg_mean_slowdown = 1.0;
  double mean_queue_delay_s = 0.0;
  double p95_queue_delay_s = 0.0;
  double gpu_utilization = 0.0;        ///< busy-GPU fraction over makespan
  std::vector<double> util_timeline;   ///< per-bin mean busy fraction
  int jobs_completed = 0;
  int fg_jobs = 0;
  int bg_jobs = 0;
  int lends = 0;      ///< background placements onto foreground GPUs
  int reclaims = 0;   ///< bg demotions/evictions on foreground demand
  int max_jobs_per_gpu = 0;  ///< never exceeds 2 (one fg + one bg)
  bool qos_met = true;       ///< fg_p95_slowdown <= qos_fg_slowdown
  bool calibrated = false;   ///< a measured InterferenceTable was loaded
  /// Interference lookups answered by a measured table entry vs. by the
  /// analytic fallback. calibrated && calib_misses == 0 proves every
  /// collocation decision was priced from measurements.
  int calib_hits = 0;
  int calib_misses = 0;
  /// Planner invocations answered by the core::PlanCache vs. computed
  /// fresh: misses == distinct job shapes in the trace, hits + misses ==
  /// jobs resolved. Both 0 when the cache is disabled
  /// (ScheduleRunOptions::plan_cache = false).
  int plan_cache_hits = 0;
  int plan_cache_misses = 0;
};

struct ScheduleResult {
  std::string policy;
  std::uint64_t seed = 0;
  std::vector<JobOutcome> jobs;  // id order
  FleetMetrics fleet;
};

/// A full experiment: trace spec + cluster/policy config.
struct ScheduleSpec {
  std::string name = "schedule";
  WorkloadSpec workload;
  ScheduleConfig config;
};

/// Parses {"kind": "schedule", "name": ..., "workload": {...},
/// "cluster": {...}}. kind may be omitted only when a "workload" block is
/// present; any other kind throws. Unknown keys are ignored, bad values
/// throw (std::invalid_argument / std::runtime_error).
ScheduleSpec schedule_spec_from_json(const Json& j);
Json to_json(const ScheduleSpec& spec);

Json to_json(const JobOutcome& job);
Json to_json(const ScheduleResult& result);

/// Execution knobs for one run_schedule call. Deliberately *not* part of
/// the ScheduleSpec JSON: they change how fast the answer is computed, not
/// what the answer is, so specs stay byte-portable across hosts. One
/// exception is called out below: metrics_exact_cap (exact below the cap,
/// approximate percentiles beyond it).
struct ScheduleRunOptions {
  /// Worker count for resolving job shapes (the planner DP) before the
  /// event simulation starts; 1 = the serial path. The simulation itself
  /// is event-ordered and always single-threaded.
  int jobs = 1;
  /// Memoize planner invocations per distinct (model, batch, amp_limit,
  /// gpu-candidate) shape. Off = re-plan every job (the pre-cache path;
  /// kept for benchmarking the cache win).
  bool plan_cache = true;
  /// Optional cross-run cache: when set, plans persist across run_schedule
  /// calls (e.g. a sweep re-pricing the same trace under many configs).
  /// Ignored when plan_cache is false. The caller keeps ownership.
  core::PlanCache* shared_plan_cache = nullptr;
  /// Optional shared worker pool (api::Service lends its resident pool):
  /// when set, shape resolution fans out across it and `jobs` is ignored.
  /// The caller keeps ownership; the pool must be idle for the call.
  util::ThreadPool* pool = nullptr;
  /// Scheduler core: "indexed" (default) answers every placement question
  /// through an incremental ClusterIndex in O(log n) per event; "reference"
  /// rebuilds and scans full snapshots, O(GPUs x queue) per event. Both
  /// produce byte-identical results (the fleet-core parity suite enforces
  /// it); "reference" exists as the executable specification and for
  /// benchmarking the index win.
  std::string core = "indexed";
  /// Per-metric sample cap for fleet aggregates (fg/bg slowdown, queue
  /// delay). Below the cap the summaries are exact and byte-identical to
  /// the unbounded path; past it they collapse into O(1)-memory P-square
  /// percentile estimators (mean/min/max stay exact). 0 = never collapse
  /// (the old unbounded behavior).
  std::size_t metrics_exact_cap = 4096;
  /// When set, the run appends scheduler decisions to this recorder: one
  /// ph:"X" span per completed job (pid = 1 + its first GPU, tid 0 fg /
  /// 1 bg), ph:"i" instants for arrival/dispatch/reclaim/complete, and an
  /// "event_queue_depth" ph:"C" counter series sampled per dispatch round.
  /// All timestamps are simulated seconds. nullptr (the default) records
  /// nothing and costs one branch per hook — the fleet-bench path. The
  /// caller keeps ownership; recording changes no schedule output.
  deeppool::TraceRecorder* trace = nullptr;
  /// Optional stop signal (deadline or manual; see util/cancel.h). Polled
  /// during shape resolution and then between simulation events — never
  /// mid-event, so a cancelled run stops at an event boundary with every
  /// invariant intact. A fired token throws util::CancelledError whose
  /// partial() carries the fleet tallies final at that boundary
  /// (jobs_completed, sim_time_s, lends, reclaims, ...). nullptr (the
  /// default) skips the polls entirely: the no-deadline path is
  /// byte-identical to a run without this knob.
  const util::CancelToken* cancel = nullptr;
};

/// Runs the whole trace to completion. Deterministic: the same workload and
/// config produce a byte-identical to_json(result) dump regardless of
/// options.jobs and of whether the plan cache is shared (cache counters
/// depend only on plan_cache on/off and on prior use of a shared cache).
/// Throws std::invalid_argument on bad specs or options.jobs < 1, and
/// std::runtime_error if jobs cannot finish within max_sim_time_s.
ScheduleResult run_schedule(const WorkloadSpec& workload,
                            const ScheduleConfig& config,
                            const ScheduleRunOptions& options = {});
ScheduleResult run_schedule(const ScheduleSpec& spec,
                            const ScheduleRunOptions& options = {});

}  // namespace deeppool::sched
