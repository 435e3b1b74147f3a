// Pluggable placement policies for the multi-tenant cluster scheduler.
//
// A policy sees an abstract cluster view (per-GPU occupancy plus, for
// lendable GPUs, the background progress rate lending would yield) and the
// pending job queue, and decides which queued job to dispatch next and onto
// which GPUs. Three policies ship:
//
//   fifo_partition — strict FIFO over dedicated GPU partitions; the head of
//     the queue blocks everything behind it (the classic static-partition
//     baseline of paper Fig. 10).
//   best_fit      — dedicated partitions, but the dispatcher may backfill:
//     among queued jobs that fit the free GPUs it picks the one leaving the
//     least capacity idle (tightest packing), so small jobs slide into holes.
//   burst_lending — best-effort multi-tenancy in the DeepPool style: besides
//     backfilling, background jobs may be *lent* the idle phases of a
//     foreground job's GPUs (QoS-aware: only where the projected foreground
//     slowdown stays under the configured bound), and a foreground arrival
//     reclaims GPUs occupied by dedicated background jobs.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace deeppool::sched {

class ClusterIndex;

/// What a policy may know about one GPU.
struct GpuView {
  int fg_job = -1;  ///< id of the foreground job owning this GPU, -1 if none
  int bg_job = -1;  ///< id of the background job on this GPU, -1 if none
  /// Pair-agnostic background progress rate (fraction of a dedicated GPU) a
  /// lent placement on this GPU would get right now; 0 means lending is not
  /// allowed (no foreground owner, a background tenant already present, or
  /// the QoS bound would be violated). Used when no per-pair evaluator is
  /// supplied via PolicyContext (unit tests, custom drivers).
  double lend_rate = 0.0;

  bool free() const { return fg_job < 0 && bg_job < 0; }
  /// A dedicated background job holds this GPU and no foreground does; a
  /// lending policy may hand the GPU to an arriving foreground job.
  bool reclaimable() const { return fg_job < 0 && bg_job >= 0; }
};

/// What a policy may know about one queued job.
struct JobView {
  int id = -1;
  bool foreground = true;
  int gpus_needed = 1;
  /// Zoo model name; keys measured-interference lookups so lending can be
  /// priced per (foreground, background) pair.
  std::string model;
};

/// Optional per-dispatch context the scheduler hands to select(). The lend
/// evaluator prices lending per *pair*: the rate (fraction of a dedicated
/// GPU) this specific queued job would progress at if lent this specific
/// GPU, 0 when lending is refused (no foreground owner, a tenant already
/// present, or the projected foreground slowdown would break QoS). The
/// scheduler backs it with a calib::InterferenceModel — a measured
/// InterferenceTable when one is loaded, the analytic mux-derived factors
/// otherwise — so burst_lending lends against measured per-pair costs
/// without knowing where the numbers came from.
struct PolicyContext {
  std::function<double(const JobView& job, int gpu)> lend_rate;
};

/// A placement decision: the chosen GPUs, and whether a background job rides
/// collocated on foreground-owned GPUs ("lent") instead of owning them.
struct Placement {
  std::vector<int> gpu_ids;
  bool lent = false;
};

/// A dispatch decision: which queued job (index into the queue view) goes
/// where.
struct Decision {
  int queue_index = -1;
  Placement placement;
};

/// A dispatch decision against a ClusterIndex: the job id (queue entries are
/// keyed, not positional) and where it goes.
struct IndexedDecision {
  int job_id = -1;
  Placement placement;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual const char* name() const = 0;
  /// Whether jobs behind a blocked queue head may dispatch first.
  virtual bool backfill() const = 0;
  /// Whether this policy lends foreground idle-phase GPUs / reclaims
  /// background-held GPUs on foreground demand.
  virtual bool lending() const = 0;
  /// Picks the next job to dispatch, or nullopt if nothing fits right now.
  /// `queue` is in FIFO (arrival) order. Must be deterministic. `ctx` may
  /// carry a per-pair lend evaluator; without one, lending policies fall
  /// back to the pair-agnostic GpuView::lend_rate.
  virtual std::optional<Decision> select(
      const std::vector<JobView>& queue, const std::vector<GpuView>& gpus,
      const PolicyContext& ctx = {}) const = 0;

  /// O(log n) selection against the incremental index. Must decide exactly
  /// what select() would decide on the equivalent snapshot (the fleet-core
  /// byte-parity suite enforces this).
  virtual std::optional<IndexedDecision> select_indexed(
      const ClusterIndex& index) const = 0;
};

/// Factory: "fifo_partition" | "best_fit" | "burst_lending". Throws
/// std::invalid_argument listing policy_names() on anything else.
std::unique_ptr<PlacementPolicy> make_policy(const std::string& name);

/// Names accepted by make_policy(), in documentation order.
std::vector<std::string> policy_names();

}  // namespace deeppool::sched
