// Fleet-scale core equivalence: the indexed scheduler core must be
// decision-for-decision — byte-for-byte in the result JSON — identical to
// the reference snapshot-scan core, on every shipped policy and on the
// scenario shapes we ship. Plus unit coverage for the indexed EventQueue
// the simulator now runs on.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calib/interference.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "sim/event_queue.h"

namespace deeppool::sched {
namespace {

ScheduleConfig cluster(int gpus, const std::string& policy) {
  ScheduleConfig config;
  config.num_gpus = gpus;
  config.policy = policy;
  config.qos_fg_slowdown = 1.25;
  return config;
}

/// The shipped sched_trace_reclaim.json shape: a bg-heavy burst at t=0, a
/// late foreground that must demote/evict standing tenants.
WorkloadSpec reclaim_trace() {
  WorkloadSpec w;
  w.arrival = "trace";
  w.arrival_times = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 2.0};
  w.seed = 1;
  w.bg_fraction = 0.8;
  w.min_iterations = 60;
  w.max_iterations = 60;
  w.fg_mix = {{"vgg16", 1.0, 32, 2.0}};
  w.bg_mix = {{"resnet50", 1.0, 16, 0.0}};
  return w;
}

std::string run_dump(const WorkloadSpec& w, const ScheduleConfig& c,
                     const std::string& core) {
  ScheduleRunOptions options;
  options.core = core;
  return to_json(run_schedule(w, c, options)).dump();
}

TEST(FleetCore, IndexedMatchesReferenceOnEveryPolicy) {
  const WorkloadSpec w = reference_poisson_mix();
  for (const std::string policy :
       {"fifo_partition", "best_fit", "burst_lending"}) {
    const ScheduleConfig c = cluster(16, policy);
    EXPECT_EQ(run_dump(w, c, "indexed"), run_dump(w, c, "reference"))
        << "policy=" << policy;
  }
}

TEST(FleetCore, IndexedMatchesReferenceOnTheReclaimTrace) {
  // Evictions re-queue at the front; the indexed core mirrors that with
  // decreasing front sequence numbers. This trace forces that path.
  const ScheduleConfig c = cluster(8, "burst_lending");
  EXPECT_EQ(run_dump(reclaim_trace(), c, "indexed"),
            run_dump(reclaim_trace(), c, "reference"));
}

TEST(FleetCore, IndexedMatchesReferenceOnADeepBacklog) {
  // Enough jobs that the pending queue stays deep for most of the run —
  // the regime where the two cores' selection structures diverge if any
  // ordering detail (seq keys, bucket fronts, lend-offer ties) is off.
  WorkloadSpec w = reference_poisson_mix();
  w.num_jobs = 600;
  w.rate_per_s = 8.0;
  w.seed = 9;
  for (const std::string policy : {"best_fit", "burst_lending"}) {
    const ScheduleConfig c = cluster(16, policy);
    EXPECT_EQ(run_dump(w, c, "indexed"), run_dump(w, c, "reference"))
        << "policy=" << policy;
  }
}

TEST(FleetCore, IndexedMatchesReferenceWithAMeasuredTable) {
  // Measured per-pair factors make lend offers differ per background model,
  // exercising the per-model offer buckets; counters must also match.
  WorkloadSpec w = reference_poisson_mix();
  ScheduleConfig c = cluster(16, "burst_lending");
  for (const std::string& fg : {"vgg16", "wide_resnet101_2", "inception_v3"}) {
    for (const std::string& bg : {"resnet50", "vgg16"}) {
      for (const double amp : {2.0, 0.0}) {
        calib::PairFactors f;
        f.fg_slowdown = bg == "resnet50" ? 0.04 : 0.30;
        f.bg_efficiency = bg == "resnet50" ? 0.9 : 0.5;
        c.calibration.set(calib::PairKey{fg, bg, {16, amp}}, f);
      }
    }
  }
  const std::string indexed = run_dump(w, c, "indexed");
  EXPECT_EQ(indexed, run_dump(w, c, "reference"));
  // The measured table must actually have priced decisions in this setup.
  const Json j = Json::parse(indexed);
  EXPECT_TRUE(j.at("fleet").at("calibrated").as_bool());
  EXPECT_GT(j.at("fleet").at("calib_hits").as_int(), 0);
  EXPECT_EQ(j.at("fleet").at("calib_misses").as_int(), 0);
}

TEST(FleetCore, UtilBinsOptionOverridesTheSpecResolution) {
  // `--util-bins N` edits ScheduleConfig::util_timeline_bins; the timeline
  // follows the spec's resolution in both cores.
  const WorkloadSpec w = reclaim_trace();
  ScheduleConfig c = cluster(8, "burst_lending");
  EXPECT_EQ(run_schedule(w, c).fleet.util_timeline.size(),
            static_cast<std::size_t>(ScheduleConfig{}.util_timeline_bins));
  c.util_timeline_bins = 6;
  EXPECT_EQ(run_schedule(w, c).fleet.util_timeline.size(), 6u);
  EXPECT_EQ(run_dump(w, c, "indexed"), run_dump(w, c, "reference"));
  c.util_timeline_bins = 0;
  EXPECT_THROW(run_schedule(w, c), std::invalid_argument);
}

TEST(FleetCore, MetricsCapLeavesJobRecordsExact) {
  // A tiny cap makes the fleet percentiles approximate, but per-job
  // outcomes and the exact aggregates must not move.
  const WorkloadSpec w = reference_poisson_mix();
  const ScheduleConfig c = cluster(16, "burst_lending");
  const ScheduleResult exact = run_schedule(w, c);
  ScheduleRunOptions options;
  options.metrics_exact_cap = 8;
  const ScheduleResult capped = run_schedule(w, c, options);
  ASSERT_EQ(exact.jobs.size(), capped.jobs.size());
  for (std::size_t i = 0; i < exact.jobs.size(); ++i) {
    EXPECT_EQ(to_json(exact.jobs[i]).dump(), to_json(capped.jobs[i]).dump());
  }
  EXPECT_EQ(exact.fleet.makespan_s, capped.fleet.makespan_s);
  EXPECT_EQ(exact.fleet.fg_mean_slowdown, capped.fleet.fg_mean_slowdown);
  EXPECT_NEAR(exact.fleet.fg_p95_slowdown, capped.fleet.fg_p95_slowdown, 0.2);
}

TEST(FleetCore, RejectsUnknownCore) {
  ScheduleRunOptions options;
  options.core = "quadratic";
  EXPECT_THROW(
      run_schedule(reclaim_trace(), cluster(8, "burst_lending"), options),
      std::invalid_argument);
}

#ifdef DEEPPOOL_SCENARIO_DIR
TEST(FleetCore, IndexedMatchesReferenceOnTheShippedScenarios) {
  // The acceptance bar: byte-identical `deeppool schedule` output on every
  // shipped example trace.
  for (const std::string name :
       {"sched_poisson_mix", "sched_fixed_small", "sched_trace_reclaim"}) {
    const std::string path =
        std::string(DEEPPOOL_SCENARIO_DIR) + "/" + name + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const ScheduleSpec spec =
        schedule_spec_from_json(Json::parse(buffer.str()));
    EXPECT_EQ(run_dump(spec.workload, spec.config, "indexed"),
              run_dump(spec.workload, spec.config, "reference"))
        << "scenario=" << name;
  }
}
#endif

}  // namespace
}  // namespace deeppool::sched

namespace deeppool::sim {
namespace {

TEST(EventQueue, PopsInTimeOrderWithInsertionTieBreak) {
  EventQueue q;
  std::vector<int> order;
  q.push(2.0, 0, 1, [&] { order.push_back(1); });
  q.push(1.0, 1, 2, [&] { order.push_back(2); });
  q.push(1.0, 2, 3, [&] { order.push_back(3); });
  q.push(0.5, 3, 4, [&] { order.push_back(4); });
  while (!q.empty()) q.pop_top().fn();
  EXPECT_EQ(order, (std::vector<int>{4, 2, 3, 1}));
}

TEST(EventQueue, EraseRemovesExactlyThatEntry) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(static_cast<Time>(i), static_cast<std::uint64_t>(i),
           static_cast<EventId>(i + 1), [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(q.erase(4));   // interior entry
  EXPECT_TRUE(q.erase(1));   // current top
  EXPECT_TRUE(q.erase(10));  // last entry
  EXPECT_FALSE(q.erase(4));  // already gone
  EXPECT_FALSE(q.erase(99));
  EXPECT_EQ(q.size(), 7u);
  while (!q.empty()) q.pop_top().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 6, 7, 8}));
}

TEST(EventQueue, DuplicateIdThrows) {
  EventQueue q;
  q.push(1.0, 0, 7, [] {});
  EXPECT_THROW(q.push(2.0, 1, 7, [] {}), std::logic_error);
}

TEST(EventQueue, EraseKeepsHeapOrderUnderChurn) {
  // Erase-then-pop across a shuffled schedule: the remaining entries must
  // still drain in (when, seq) order.
  EventQueue q;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const Time when = static_cast<Time>((i * 7919) % 101);
    q.push(when, static_cast<std::uint64_t>(i), static_cast<EventId>(i + 1),
           [] {});
  }
  for (int i = 0; i < n; i += 3) {
    EXPECT_TRUE(q.erase(static_cast<EventId>(i + 1)));
  }
  Time last_when = -1.0;
  std::uint64_t last_seq = 0;
  bool first = true;
  while (!q.empty()) {
    const EventQueue::Entry e = q.pop_top();
    if (!first && e.when == last_when) EXPECT_GT(e.seq, last_seq);
    EXPECT_GE(e.when, last_when);
    last_when = e.when;
    last_seq = e.seq;
    first = false;
  }
}

}  // namespace
}  // namespace deeppool::sim
