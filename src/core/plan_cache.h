// Memoized planner results: plan each distinct job shape once.
//
// The burst-parallel planner DP (core::Planner) is the single most
// expensive call in every scheduling path, yet cluster traces draw jobs
// from a handful of zoo models — a 5k-job Poisson trace names at most a
// few distinct (model, batch, amp, gpu-candidate) shapes. PlanCache keys
// planner invocations by exactly the inputs that determine the resulting
// TrainingPlan and returns a shared immutable plan on every repeat lookup,
// with hit/miss counters so a run can prove how it was priced
// (sched::FleetMetrics reports them as plan_cache_hits / plan_cache_misses).
//
// Thread-safe with single-flight semantics: when several workers race the
// same cold key, exactly one runs the compute callback and the rest block
// on its result — so misses == distinct keys and hits == lookups - misses
// deterministically, regardless of worker count or interleaving.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/plan.h"
#include "util/cancel.h"

namespace deeppool::core {

/// Identity of one planner invocation — everything that can change the
/// resulting plan. `gpu_candidates` is the ProfileOptions GPU ceiling the
/// per-layer profiles were built against (the cluster size for foreground
/// jobs, 1 for single-GPU background trainers); `network` the fabric the
/// profiles priced communication on (a cache shared across runs must not
/// serve a 10g-derived plan to an nvswitch cluster); `data_parallel`
/// selects data_parallel_plan() over the burst-parallel DP.
struct PlanCacheKey {
  std::string model;
  std::string network = "nvswitch";
  std::int64_t global_batch = 32;
  double amp_limit = 1.5;
  int gpu_candidates = 16;
  bool pow2_only = true;
  bool data_parallel = false;

  auto operator<=>(const PlanCacheKey&) const = default;
};

class PlanCache {
 public:
  using PlanPtr = std::shared_ptr<const TrainingPlan>;

  /// The plan for `key`, computing it via `compute` on first lookup and
  /// serving the cached copy afterwards. If `compute` throws, the error
  /// propagates to every waiter of that lookup and the entry is dropped so
  /// a later lookup may retry. Exactly one counter bumps per call. A
  /// non-null `cancel` is polled before the lookup: a fired token throws
  /// util::CancelledError without touching the cache or its counters
  /// (hits + misses stay == completed plan() calls). A non-null `hit`
  /// receives which counter this call bumped (a wait on an in-flight
  /// compute is a hit), so a caller sharing the cache can count its own
  /// lookups instead of diffing the global counters.
  PlanPtr plan(const PlanCacheKey& key,
               const std::function<TrainingPlan()>& compute,
               const util::CancelToken* cancel = nullptr,
               bool* hit = nullptr);

  /// Lookups answered from the cache (including waits on an in-flight
  /// compute) / lookups that ran the planner. hits() + misses() equals the
  /// total number of plan() calls.
  std::int64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::int64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

  std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<PlanCacheKey, std::shared_future<PlanPtr>> entries_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
};

}  // namespace deeppool::core
