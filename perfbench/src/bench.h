// perfbench — the pieces every workload of the benchmark program shares:
// run arguments, the result it prints, the span recorder of the traced
// run, and the statistics and registry-delta helpers.
//
// Spans are recorded only here, around calls into deeppool's public
// entry points; nothing inside src/ is instrumented for the benchmark.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for the run's private
  /// files: the unix socket's temp dir and the traced run's span file.
  std::string scratch = ".";
};

/// What one run prints: the correctness verdict, work accounting, metrics
/// by name with their units, and a human-readable report.
class Result {
 public:
  /// Records a failed output check; the first message is kept.
  void fail(const std::string& why);
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  bool correct() const noexcept { return failure_.empty(); }
  const std::string& failure() const noexcept { return failure_; }

  void metric(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const noexcept {
    return metrics_;
  }
  void line(const std::string& text) { report_.push_back(text); }
  const std::vector<std::string>& report() const noexcept { return report_; }

  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;      ///< answered ok == false (not shed)
  std::int64_t shed = 0;        ///< refused by admission
  std::int64_t over_limit = 0;  ///< ok, but slower than the latency limit
  std::int64_t failed() const noexcept { return errors + shed + over_limit; }

 private:
  std::string failure_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> report_;
};

// ---------------------------------------------------------------------------
// Registry deltas

using Counters = std::map<std::string, std::int64_t>;

/// Every counter in the process metrics registry.
Counters registry_counters();
/// after - before, nonzero entries only.
Counters delta(const Counters& before, const Counters& after);
/// Sum of the entries whose name starts with `prefix`.
std::int64_t sum_prefix(const Counters& counters, std::string_view prefix);

/// Summed observations and count of one registry histogram.
std::pair<double, std::int64_t> histogram_totals(const std::string& name);

// ---------------------------------------------------------------------------
// Tracing

/// One timed call into a layer.
struct SpanRecord {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;             ///< index in the same Tracer; -1 for a root
  std::uint64_t request;  ///< shared by every span of one request
};

/// Per-thread span recorder. Spans stay in memory until the run ends. A
/// disabled recorder records nothing and costs one branch per span.
class Tracer {
 public:
  Tracer(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}
  void set_enabled(bool on) noexcept { enabled_ = on; }
  int thread() const noexcept { return thread_; }
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  friend class Span;
  bool enabled_;
  int thread_;
  int open_ = -1;  ///< innermost open span, the parent of the next one
  std::vector<SpanRecord> spans_;
};

/// Scoped span: records [construction, destruction) under the innermost
/// span open on the same Tracer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_ = -1;
};

/// Closes a traced run: aggregates the spans, adds the metrics every
/// workload derives the same way (sched.engine_ms = sched.run minus
/// workload.generate per call; trace.overhead_ms = traced minus untraced
/// median latency of the user path; trace.unattributed_pct = self share
/// of the "request" and "handler" roots), emits every per-layer metric the
/// benchmark defines — zero where this workload never exercised the
/// layer — and writes the spans to <scratch>/spans-<workload>.json.
/// `round` is one round's registry deltas (see Rounds); `derived` carries
/// the workload's own counts.
void finish_traced(Result& result, const Args& args,
                   const std::vector<const Tracer*>& tracers,
                   const Counters& round, std::map<std::string, double> derived,
                   const std::vector<double>& traced_s,
                   const std::vector<double>& untraced_s);

// ---------------------------------------------------------------------------
// Hashing and payloads

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);
std::string hex(std::uint64_t value);

/// The payload member of a compact response envelope line, byte for byte
/// (envelope keys are sorted, so it sits between "payload" and
/// "service"). Empty when the line has no payload.
std::string_view payload_bytes(std::string_view envelope);

// ---------------------------------------------------------------------------
// Rounds

/// Pins the calling thread to the CPU it is running on until destruction,
/// then restores its CPU set. Threads it starts meanwhile inherit the one
/// CPU.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// What one measured round did. A round is the workload's unit of
/// repeated work: one replay, one pass over the plan grid, or one request
/// list per connection.
struct RoundWork {
  double seconds = 0;     ///< measured time of the round's requests
  std::int64_t ok = 0;    ///< answered ok within the latency limit
  std::int64_t jobs = 0;  ///< training jobs in those answers
  std::vector<double> latency_s;  ///< the round's request latencies
};

/// Per-round bookkeeping. Work counts are the registry deltas every round
/// of a run must repeat exactly: the first round sets the reference, and
/// later rounds that differ fail the run.
///
/// After each round the machine's speed is read off a ruler: a fixed
/// routine of benchmark-owned code (sort a 256 KiB array, gather from a
/// 1 MiB one in scattered order), timed best of three. No change to the
/// program can move the ruler, but a faster or slower stretch of the
/// machine moves both. The time metrics are scaled to a machine on which
/// the ruler takes its nominal time: times by nominal / measured, rates by
/// its inverse. Each round's rate and latencies are scaled by the reading
/// right after it, and each set-up sample likewise.
class Rounds {
 public:
  /// Records a round, then samples the ruler (the program is idle).
  void add(Result& result, const Counters& counts, const RoundWork& work);
  /// Times one fresh set-up, `make()`, and discards what it made. It runs
  /// on one CPU, then the ruler is read on that CPU. A set-up that hands
  /// work to a thread on the other CPU took 16 or 21 ms depending on that
  /// CPU's state, which no ruler reading on this one could correct; on one
  /// CPU its time is its work, scaled by this CPU's speed.
  template <class Make>
  void time_setup(Make&& make) {
    const OneCpu one;
    const Clock::time_point start = Clock::now();
    const auto made = make();
    add_setup(seconds_since(start));
  }
  const Counters& reference() const noexcept { return reference_; }
  /// Prints the round count and durations, the ruler readings, the
  /// per-round counts and their digest (two runs with the same seed must
  /// print the same digest).
  void report(Result& result) const;
  /// The end-to-end metrics, scaled as above; the report also prints them
  /// unscaled. Rates and the median latency are medians over rounds, so a
  /// short faster or slower stretch moves them little: jobs_per_s and
  /// req_per_s are the median round's jobs and ok answers per second,
  /// req_p50_ms the median round's median latency. req_p99_ms is the
  /// median round's p99 when every round holds at least 1000 samples, else
  /// the p99 of the whole run, or its slowest sample when the run holds
  /// fewer than 1000; setup_s is the median of the run's fresh set-ups.
  void end_to_end(Result& result) const;

 private:
  /// Records one set-up's duration, then samples the ruler.
  void add_setup(double seconds);

  Counters reference_;
  std::vector<RoundWork> work_;
  std::vector<double> ruler_s_;  ///< one reading per round
  std::vector<double> setup_s_;
  std::vector<double> setup_ruler_s_;  ///< one reading per set-up
};

// ---------------------------------------------------------------------------
// Workloads

Result run_fleet_replay(const Args& args);
Result run_serve_mix(const Args& args);
Result run_cold_plan(const Args& args);

}  // namespace perfbench
