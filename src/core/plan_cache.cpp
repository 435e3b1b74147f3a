#include "core/plan_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/failpoint.h"

namespace deeppool::core {

PlanCache::PlanPtr PlanCache::plan(
    const PlanCacheKey& key, const std::function<TrainingPlan()>& compute,
    const util::CancelToken* cancel, bool* hit) {
  if (cancel != nullptr) cancel->check();
  // Handles resolved once per process; each hit/miss then costs one relaxed
  // atomic add on top of the cache's own bookkeeping.
  static obs::Counter& hit_metric = obs::registry().counter("plan_cache/hits");
  static obs::Counter& miss_metric =
      obs::registry().counter("plan_cache/misses");
  std::shared_future<PlanPtr> future;
  std::promise<PlanPtr> mine;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      hit_metric.inc();
      future = it->second;
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      miss_metric.inc();
      future = mine.get_future().share();
      entries_.emplace(key, future);
      owner = true;
    }
  }
  if (hit != nullptr) *hit = !owner;
  if (owner) {
    try {
      DP_SPAN("plan_cache/resolve");
      // An injected fault here exercises the single-flight error path:
      // every waiter of this lookup sees it, the entry is dropped, and a
      // later lookup retries.
      DP_FAILPOINT("plan_cache/resolve");
      mine.set_value(std::make_shared<const TrainingPlan>(compute()));
    } catch (...) {
      mine.set_exception(std::current_exception());
      // Waiters already holding the future see the error; drop the entry so
      // the failure does not poison later lookups of the same key.
      std::lock_guard<std::mutex> lk(mu_);
      entries_.erase(key);
    }
  }
  return future.get();  // rethrows the compute error for every waiter
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  entries_.clear();
}

}  // namespace deeppool::core
