// Scenario runner: one foreground job on a simulated cluster (paper Fig. 6).
//
// Places a burst-parallel foreground job on GPUs [0, plan.peak_gpus()) of a
// simulated cluster, optionally collocates a low-priority background job on
// each GPU (and/or fills non-foreground GPUs with dedicated background
// jobs, the "Cluster Partition" baseline of Fig. 10), runs the discrete-
// event simulation, and reports the throughput/QoS metrics the paper's
// evaluation plots.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/plan.h"
#include "models/cost_model.h"
#include "runtime/multiplex.h"

namespace deeppool::runtime {

struct ScenarioConfig {
  int num_gpus = 8;

  /// Foreground job. Unset = no foreground (the "BG Only" bars).
  std::optional<core::TrainingPlan> fg_plan;

  /// Collocate a background task on every GPU the foreground uses.
  bool collocate_bg = false;
  /// Run dedicated background tasks on GPUs the foreground does not use.
  bool bg_on_idle_gpus = true;
  /// Background per-iteration batch (the paper reduces this to shorten
  /// best-effort kernels; Fig. 11's final rung).
  std::int64_t bg_batch = 8;

  /// Extension (paper §1 limitations / future work): run the background job
  /// as a *distributed* burst-parallel task across the cluster instead of
  /// independent single-GPU trainers. When set, `collocate_bg` /
  /// `bg_on_idle_gpus` are ignored and this plan is placed at low priority
  /// on GPUs [0, plan.peak_gpus()).
  std::optional<core::TrainingPlan> bg_distributed_plan;

  /// Reject configurations whose working sets cannot fit in device memory
  /// (§3.1: strong scaling "reserv[es] enough memory space for a small
  /// background job" — this checks that claim instead of assuming it).
  bool enforce_memory_fit = true;

  MultiplexConfig mux;

  /// When non-empty, write a chrome://tracing JSON of every device op here.
  std::string trace_path;

  int warmup_iters = 4;     ///< FG iterations before measurement starts
  int measure_iters = 24;   ///< FG iterations measured
  double bg_only_time_s = 0.25;  ///< wall-clock simulated for FG-less runs
  double max_sim_time_s = 300.0; ///< hard safety cap
};

struct ScenarioResult {
  double window_s = 0.0;          ///< measurement window length
  int fg_iterations = 0;
  double fg_iteration_avg_s = 0.0;
  double fg_throughput = 0.0;     ///< foreground samples/s
  double bg_throughput = 0.0;     ///< background samples/s, cluster-wide
  double fg_speedup = 0.0;        ///< vs 1 GPU at the same global batch
  double allreduce_slowdown = 1.0;///< mean over sync ops in the window... (1 if none)
  double sm_utilization = 0.0;    ///< busy SM fraction across the cluster

  double cluster_throughput() const noexcept {
    return fg_throughput + bg_throughput;
  }
};

/// Runs one scenario. The background job trains `bg_model` (the paper uses
/// the same architecture as the foreground for interpretability). Throws
/// std::runtime_error if the foreground cannot finish its iterations within
/// the safety cap (a deadlock would be a simulator bug).
ScenarioResult run_scenario(const models::ModelGraph& fg_model,
                            const models::ModelGraph& bg_model,
                            const models::CostModel& cost,
                            const ScenarioConfig& config);

}  // namespace deeppool::runtime
