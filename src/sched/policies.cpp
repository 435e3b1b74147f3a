#include "sched/policies.h"

#include <stdexcept>

#include "sched/cluster_index.h"

namespace deeppool::sched {

namespace {

/// First-`need` free GPUs, topped up from reclaimable ones when `reclaim` is
/// set — the exact ascending-id order the snapshot scans produce.
std::optional<Placement> place_indexed(const ClusterIndex& index, int need,
                                       bool reclaim) {
  const int capacity =
      index.free_count() + (reclaim ? index.reclaimable_count() : 0);
  if (need > capacity) return std::nullopt;
  Placement p;
  index.first_free(need, p.gpu_ids);
  if (static_cast<int>(p.gpu_ids.size()) < need) {
    index.first_reclaimable(need - static_cast<int>(p.gpu_ids.size()),
                            p.gpu_ids);
  }
  return p;
}

/// First-`needed` free GPUs, or nullopt when fewer than `needed` are free.
std::optional<Placement> place_exclusive(const JobView& job,
                                         const std::vector<GpuView>& gpus) {
  Placement p;
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    if (gpus[g].free()) p.gpu_ids.push_back(static_cast<int>(g));
    if (static_cast<int>(p.gpu_ids.size()) == job.gpus_needed) return p;
  }
  return std::nullopt;
}

class FifoPartition final : public PlacementPolicy {
 public:
  const char* name() const override { return "fifo_partition"; }
  bool backfill() const override { return false; }
  bool lending() const override { return false; }

  std::optional<Decision> select(
      const std::vector<JobView>& queue, const std::vector<GpuView>& gpus,
      const PolicyContext&) const override {
    if (queue.empty()) return std::nullopt;
    auto p = place_exclusive(queue.front(), gpus);
    if (!p) return std::nullopt;
    return Decision{0, std::move(*p)};
  }

  std::optional<IndexedDecision> select_indexed(
      const ClusterIndex& index) const override {
    const ClusterIndex::Entry* head = index.head();
    if (head == nullptr) return std::nullopt;
    auto p = place_indexed(index, head->gpus_needed, /*reclaim=*/false);
    if (!p) return std::nullopt;
    return IndexedDecision{head->job, std::move(*p)};
  }
};

class BestFit final : public PlacementPolicy {
 public:
  const char* name() const override { return "best_fit"; }
  bool backfill() const override { return true; }
  bool lending() const override { return false; }

  std::optional<Decision> select(
      const std::vector<JobView>& queue, const std::vector<GpuView>& gpus,
      const PolicyContext&) const override {
    // Tightest packing: of the queued jobs that fit the free GPUs, take the
    // one that leaves the fewest free (largest demand); FIFO breaks ties.
    std::optional<Decision> best;
    int best_need = -1;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].gpus_needed <= best_need) continue;
      auto p = place_exclusive(queue[i], gpus);
      if (!p) continue;
      best_need = queue[i].gpus_needed;
      best = Decision{static_cast<int>(i), std::move(*p)};
    }
    return best;
  }

  std::optional<IndexedDecision> select_indexed(
      const ClusterIndex& index) const override {
    const ClusterIndex::Entry* entry =
        index.best_fit_within(index.free_count());
    if (entry == nullptr) return std::nullopt;
    auto p = place_indexed(index, entry->gpus_needed, /*reclaim=*/false);
    if (!p) return std::nullopt;
    return IndexedDecision{entry->job, std::move(*p)};
  }
};

class BurstLending final : public PlacementPolicy {
 public:
  const char* name() const override { return "burst_lending"; }
  bool backfill() const override { return true; }
  bool lending() const override { return true; }

  std::optional<Decision> select(
      const std::vector<JobView>& queue, const std::vector<GpuView>& gpus,
      const PolicyContext& ctx) const override {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      auto p = place(queue[i], gpus, ctx);
      if (p) return Decision{static_cast<int>(i), std::move(*p)};
    }
    return std::nullopt;
  }

  std::optional<IndexedDecision> select_indexed(
      const ClusterIndex& index) const override {
    // The snapshot scan dispatches the earliest queued job that is placeable
    // right now. Placeable means: foreground — demand fits free plus
    // reclaimable GPUs; background — any GPU is free, or (all busy) some
    // foreground host has a live QoS-vetted lend offer for its model. Each
    // candidate class has an O(log) "earliest" query; the winner is the
    // minimum sequence among them.
    const int free = index.free_count();
    const ClusterIndex::Entry* fg = index.earliest_fg_within(
        free + index.reclaimable_count());
    const ClusterIndex::Entry* bg =
        free > 0 ? index.earliest_bg() : index.earliest_lendable_bg();
    const ClusterIndex::Entry* pick = fg;
    if (bg != nullptr && (pick == nullptr || bg->seq < pick->seq)) pick = bg;
    if (pick == nullptr) return std::nullopt;
    if (pick->foreground) {
      auto p = place_indexed(index, pick->gpus_needed, /*reclaim=*/true);
      if (!p) return std::nullopt;  // unreachable: capacity was checked
      return IndexedDecision{pick->job, std::move(*p)};
    }
    if (free > 0) {
      Placement p;
      index.first_free(1, p.gpu_ids);
      return IndexedDecision{pick->job, std::move(p)};
    }
    const int gpu = index.best_lend_gpu(pick->model);
    if (gpu < 0) return std::nullopt;  // unreachable: offer existence checked
    return IndexedDecision{pick->job, Placement{{gpu}, /*lent=*/true}};
  }

 private:
  static std::optional<Placement> place(const JobView& job,
                                        const std::vector<GpuView>& gpus,
                                        const PolicyContext& ctx) {
    if (job.foreground) {
      // Free GPUs first; top up from GPUs held by dedicated background jobs
      // (the scheduler demotes or evicts those tenants — "reclamation on
      // foreground demand").
      Placement p;
      for (std::size_t g = 0; g < gpus.size(); ++g) {
        if (gpus[g].free()) p.gpu_ids.push_back(static_cast<int>(g));
        if (static_cast<int>(p.gpu_ids.size()) == job.gpus_needed) return p;
      }
      for (std::size_t g = 0; g < gpus.size(); ++g) {
        if (gpus[g].reclaimable()) p.gpu_ids.push_back(static_cast<int>(g));
        if (static_cast<int>(p.gpu_ids.size()) == job.gpus_needed) return p;
      }
      return std::nullopt;
    }
    // Background: a free GPU makes a dedicated tenant; otherwise lend from
    // the foreground GPU offering the best idle-phase rate for *this* job
    // (QoS-aware — the evaluator returns 0 where the bound would be
    // broken). The per-pair evaluator, when supplied, prices each candidate
    // GPU against this job's model; GpuView::lend_rate is the pair-agnostic
    // fallback.
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      if (gpus[g].free()) return Placement{{static_cast<int>(g)}, false};
    }
    int best_gpu = -1;
    double best_rate = 0.0;
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      const double rate = ctx.lend_rate
                              ? ctx.lend_rate(job, static_cast<int>(g))
                              : gpus[g].lend_rate;
      if (rate > best_rate) {
        best_rate = rate;
        best_gpu = static_cast<int>(g);
      }
    }
    if (best_gpu < 0) return std::nullopt;
    return Placement{{best_gpu}, true};
  }
};

}  // namespace

std::unique_ptr<PlacementPolicy> make_policy(const std::string& name) {
  if (name == "fifo_partition") return std::make_unique<FifoPartition>();
  if (name == "best_fit") return std::make_unique<BestFit>();
  if (name == "burst_lending") return std::make_unique<BurstLending>();
  // Derive the list from policy_names() so the one-line error a user sees
  // for a typo'd --policy can never drift from the real set.
  std::string known;
  for (const std::string& valid : policy_names()) {
    if (!known.empty()) known += " | ";
    known += valid;
  }
  throw std::invalid_argument("unknown policy \"" + name +
                              "\"; valid policies: " + known);
}

std::vector<std::string> policy_names() {
  return {"fifo_partition", "best_fit", "burst_lending"};
}

}  // namespace deeppool::sched
