#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/json.h"

namespace perfbench {

using deeppool::Json;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Result::fail(const std::string& why) {
  if (failure_.empty()) failure_ = why;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

namespace {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double p99(const std::vector<double>& values, std::string& note) {
  const std::size_t n = values.size();
  if (n >= 1000) {
    note = std::to_string(n) + " samples, " +
           std::to_string(n - (n * 99 + 99) / 100) + " beyond the p99";
    return percentile(values, 0.99);
  }
  note = std::to_string(n) +
         " samples, too few for a p99: req_p99_ms is the slowest";
  return percentile(values, 1.0);
}

double peak_rss_mb() {
  // VmHWM starts afresh at exec; getrusage's ru_maxrss would carry over the
  // high-water mark of the process that started this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string to_string(const Counters& counters) {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : " ") << name << '=' << value;
    first = false;
  }
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracing

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The span layers, in report order. Each yields <name>.calls, <name>_ms
/// (busy per call) and <name>.self_ms (self per call).
const char* const kSpanLayers[] = {
    "request",          "json.parse",       "api.decode",
    "api.handle",       "api.envelope",     "json.dump",
    "handler",          "workload.validate", "workload.generate",
    "sched.run",        "sched.result_json", "runtime.resolve",
    "models.graph",     "core.profile",     "core.planner",
    "io.rtt",
};

struct DerivedMetric {
  const char* name;
  const char* unit;
};

/// Metrics a workload computes itself (span differences, registry deltas,
/// byte counts), in report order.
const DerivedMetric kDerived[] = {
    {"sched.engine_ms", "ms"},        {"io.overhead_ms", "ms"},
    {"io.lease_wait_ms", "ms"},       {"io.accepts", "count"},
    {"json.bytes_out", "bytes"},      {"workload.jobs", "count"},
    {"api.errors", "count"},          {"api.shed", "count"},
    {"plan_cache.hits", "count"},     {"plan_cache.misses", "count"},
    {"sched.arrivals", "count"},      {"sched.jobs_completed", "count"},
    {"sched.lends", "count"},         {"sched.reclaims", "count"},
    {"sched.decisions", "count"},     {"trace.overhead_ms", "ms"},
    {"trace.unattributed_pct", "%"},
};

}  // namespace

Span::Span(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(
      SpanRecord{name, now_ns(), 0, tracer_.open_, request});
  tracer_.open_ = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  SpanRecord& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  tracer_.open_ = span.parent;
}

namespace {

struct LayerStats {
  std::int64_t calls = 0;
  double busy_ms = 0;  ///< summed span durations
  double self_ms = 0;  ///< busy minus the time covered by direct children
};

/// Per-span child time (sum of direct children's durations; children of
/// one span run sequentially on its thread, so they never overlap).
std::vector<std::int64_t> child_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  return covered;
}

/// Per-name totals over every span of every tracer.
std::map<std::string, LayerStats> aggregate(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, LayerStats> layers;
  for (const Tracer* tracer : tracers) {
    const std::vector<SpanRecord>& spans = tracer->spans();
    const std::vector<std::int64_t> covered = child_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double busy = (spans[i].end_ns - spans[i].start_ns) / 1e6;
      LayerStats& stats = layers[spans[i].name];
      stats.calls += 1;
      stats.busy_ms += busy;
      stats.self_ms += busy - covered[i] / 1e6;
    }
  }
  return layers;
}

/// Root spans' summed self and busy time: the traced time that no named
/// layer call accounts for, and its base.
std::pair<double, double> root_self_and_busy_ms(
    const std::vector<const Tracer*>& tracers,
    const std::vector<std::string>& root_names) {
  double self = 0;
  double busy = 0;
  for (const Tracer* tracer : tracers) {
    const std::vector<SpanRecord>& spans = tracer->spans();
    const std::vector<std::int64_t> covered = child_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0 ||
          std::find(root_names.begin(), root_names.end(), spans[i].name) ==
              root_names.end()) {
        continue;
      }
      const double duration = (spans[i].end_ns - spans[i].start_ns) / 1e6;
      busy += duration;
      self += duration - covered[i] / 1e6;
    }
  }
  return {self, busy};
}

/// Writes every span as a Chrome trace-event file ("ph": "X", one tid per
/// tracer, args carry the request id and parent index).
void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::int64_t origin = INT64_MAX;
  for (const Tracer* tracer : tracers) {
    for (const SpanRecord& span : tracer->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\": [";
  bool first = true;
  char buf[256];
  for (const Tracer* tracer : tracers) {
    for (std::size_t i = 0; i < tracer->spans().size(); ++i) {
      const SpanRecord& span = tracer->spans()[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"request\": %llu, \"index\": %zu, \"parent\": %d}}",
                    first ? "" : ",", span.name, tracer->thread(),
                    (span.start_ns - origin) / 1e3,
                    (span.end_ns - span.start_ns) / 1e3,
                    static_cast<unsigned long long>(span.request), i,
                    span.parent);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace

void finish_traced(Result& result, const Args& args,
                   const std::vector<const Tracer*>& tracers,
                   const Counters& round, std::map<std::string, double> derived,
                   const std::vector<double>& traced_s,
                   const std::vector<double>& untraced_s) {
  const auto count = [&](const char* name) {
    const auto it = round.find(name);
    return static_cast<double>(it == round.end() ? 0 : it->second);
  };
  derived["api.errors"] = count("api/errors");
  derived["api.shed"] = count("api/shed");
  derived["plan_cache.hits"] = count("plan_cache/hits");
  derived["plan_cache.misses"] = count("plan_cache/misses");
  derived["sched.arrivals"] = count("sched/arrivals");
  derived["sched.jobs_completed"] = count("sched/jobs_completed");
  derived["sched.lends"] = count("sched/lends");
  derived["sched.reclaims"] = count("sched/reclaims");
  derived["sched.decisions"] =
      static_cast<double>(sum_prefix(round, "sched/decisions/"));
  const std::map<std::string, LayerStats> layers = aggregate(tracers);
  const auto per_call_ms = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() || it->second.calls == 0
               ? 0.0
               : it->second.busy_ms / static_cast<double>(it->second.calls);
  };
  derived["sched.engine_ms"] =
      per_call_ms("sched.run") - per_call_ms("workload.generate");
  derived["trace.overhead_ms"] = (median(traced_s) - median(untraced_s)) * 1e3;
  const auto [self_ms, busy_ms] =
      root_self_and_busy_ms(tracers, {"request", "handler"});
  derived["trace.unattributed_pct"] =
      busy_ms > 0 ? 100.0 * self_ms / busy_ms : 0.0;

  for (const char* name : kSpanLayers) {
    const auto it = layers.find(name);
    const LayerStats stats = it == layers.end() ? LayerStats{} : it->second;
    const double per_call = stats.calls > 0 ? 1.0 / stats.calls : 0.0;
    result.metric(std::string(name) + ".calls",
                  static_cast<double>(stats.calls), "count");
    result.metric(std::string(name) + "_ms", stats.busy_ms * per_call, "ms");
    result.metric(std::string(name) + ".self_ms", stats.self_ms * per_call,
                  "ms");
  }
  for (const DerivedMetric& metric : kDerived) {
    const auto it = derived.find(metric.name);
    result.metric(metric.name, it == derived.end() ? 0.0 : it->second,
                  metric.unit);
  }
  write_spans(args.scratch + "/spans-" + args.workload + ".json", tracers);
}

// ---------------------------------------------------------------------------
// Hashing and payloads

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string_view payload_bytes(std::string_view envelope) {
  constexpr std::string_view kStart = "\"payload\":";
  constexpr std::string_view kEnd = ",\"service\":";
  const std::size_t start = envelope.find(kStart);
  const std::size_t end = envelope.rfind(kEnd);
  if (start == std::string_view::npos || end == std::string_view::npos ||
      end < start + kStart.size()) {
    return {};
  }
  return envelope.substr(start + kStart.size(),
                         end - start - kStart.size());
}

// ---------------------------------------------------------------------------
// Registry deltas

Counters registry_counters() {
  Counters counters;
  const Json snapshot = deeppool::obs::registry().snapshot();
  for (const auto& [name, value] : snapshot.at("counters").as_object()) {
    counters[name] = value.as_int();
  }
  return counters;
}

Counters delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::int64_t d = value - (it == before.end() ? 0 : it->second);
    if (d != 0) out[name] = d;
  }
  return out;
}

std::int64_t sum_prefix(const Counters& counters, std::string_view prefix) {
  std::int64_t sum = 0;
  for (const auto& [name, value] : counters) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) {
      sum += value;
    }
  }
  return sum;
}

std::pair<double, std::int64_t> histogram_totals(const std::string& name) {
  const deeppool::obs::Histogram& histogram =
      deeppool::obs::registry().histogram(name);
  return {histogram.sum(), histogram.count()};
}

namespace {

/// The ruler's time on the 4-vCPU VM this benchmark was sized on, in its
/// usual (slower) state.
constexpr double kRulerNominalS = 0.006;

volatile std::uint64_t ruler_sink = 0;

/// Sorts a fixed 256 KiB array and gathers from a fixed 1 MiB one in a
/// scattered order; best of three. Its buffers are built on the first
/// call and reused, so the program's heap state cannot move it.
double ruler_s() {
  constexpr std::size_t kSorted = std::size_t{1} << 16;
  constexpr std::size_t kGathered = std::size_t{1} << 18;
  static const std::vector<std::uint32_t> input = [] {
    std::vector<std::uint32_t> words(kGathered);
    std::uint32_t x = 12345;
    for (std::uint32_t& word : words) word = x = x * 1664525u + 1013904223u;
    return words;
  }();
  static std::vector<std::uint32_t> work(kSorted);
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    std::copy(input.begin(), input.begin() + kSorted, work.begin());
    std::sort(work.begin(), work.end());
    std::uint64_t sum = work[kSorted / 2];
    for (std::size_t i = 0; i < kGathered; ++i) {
      sum += input[(i * 2654435761u) % kGathered];
    }
    ruler_sink = sum;
    best = std::min(best, seconds_since(start));
  }
  return best;
}

}  // namespace

void Rounds::add(Result& result, const Counters& counts,
                 const RoundWork& work) {
  if (work_.empty()) {
    reference_ = counts;
  } else if (counts != reference_) {
    result.fail("round " + std::to_string(work_.size() + 1) +
                " work counts differ from round 1: {" + to_string(counts) +
                "} vs {" + to_string(reference_) + "}");
  }
  work_.push_back(work);
  ruler_s_.push_back(ruler_s());
}

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

OneCpu::~OneCpu() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

void Rounds::add_setup(double seconds) {
  setup_s_.push_back(seconds);
  setup_ruler_s_.push_back(ruler_s());
}

void Rounds::report(Result& result) const {
  std::vector<double> seconds;
  for (const RoundWork& work : work_) seconds.push_back(work.seconds);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "rounds: %zu, seconds min %.4f median %.4f max %.4f",
                seconds.size(), percentile(seconds, 0.0), median(seconds),
                percentile(seconds, 1.0));
  result.line(buf);
  std::snprintf(buf, sizeof buf,
                "ruler after rounds: ms min %.3f median %.3f max %.3f "
                "(nominal %.3f)",
                percentile(ruler_s_, 0.0) * 1e3, median(ruler_s_) * 1e3,
                percentile(ruler_s_, 1.0) * 1e3, kRulerNominalS * 1e3);
  result.line(buf);
  result.line("work counts per round: " + to_string(reference_));
  result.line("work digest: " + hex(fnv1a(to_string(reference_))));
}

void Rounds::end_to_end(Result& result) const {
  // [0] unscaled, [1] scaled by the ruler read right after each round.
  std::vector<double> jobs_rate[2];
  std::vector<double> ok_rate[2];
  std::vector<double> p50_ms[2];
  std::vector<double> p99_ms[2];  // per round
  std::vector<double> latency_ms[2];
  std::string note;
  bool rounds_hold_p99 = true;
  for (std::size_t i = 0; i < work_.size(); ++i) {
    const RoundWork& work = work_[i];
    const double scales[2] = {1.0, kRulerNominalS / ruler_s_[i]};
    for (int k = 0; k < 2; ++k) {
      const double seconds = work.seconds * scales[k];
      jobs_rate[k].push_back(static_cast<double>(work.jobs) / seconds);
      ok_rate[k].push_back(static_cast<double>(work.ok) / seconds);
      p50_ms[k].push_back(median(work.latency_s) * scales[k] * 1e3);
      p99_ms[k].push_back(p99(work.latency_s, note) * scales[k] * 1e3);
      for (const double latency : work.latency_s) {
        latency_ms[k].push_back(latency * scales[k] * 1e3);
      }
    }
    rounds_hold_p99 = rounds_hold_p99 && work.latency_s.size() >= 1000;
  }
  double tail_ms[2];
  for (int k = 0; k < 2; ++k) {
    tail_ms[k] = rounds_hold_p99 ? median(p99_ms[k]) : p99(latency_ms[k], note);
  }
  if (rounds_hold_p99) {
    note = "median round's p99 over " + std::to_string(work_.size()) +
           " rounds of " + std::to_string(work_.front().latency_s.size()) +
           " samples";
  }
  std::vector<double> setup_scaled_s;
  for (std::size_t i = 0; i < setup_s_.size(); ++i) {
    setup_scaled_s.push_back(setup_s_[i] * kRulerNominalS / setup_ruler_s_[i]);
  }
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "unscaled: setup_s %.6g, jobs_per_s %.6g, req_per_s %.6g, "
                "req_p50_ms %.6g, req_p99_ms %.6g",
                median(setup_s_), median(jobs_rate[0]), median(ok_rate[0]),
                median(p50_ms[0]), tail_ms[0]);
  result.line(buf);
  std::snprintf(buf, sizeof buf,
                "set-ups: %zu, seconds min %.4f median %.4f max %.4f",
                setup_s_.size(), percentile(setup_s_, 0.0), median(setup_s_),
                percentile(setup_s_, 1.0));
  result.line(buf);
  result.line("latency: " + note);
  result.metric("setup_s", median(setup_scaled_s), "s");
  result.metric("jobs_per_s", median(jobs_rate[1]), "1/s");
  result.metric("req_per_s", median(ok_rate[1]), "1/s");
  result.metric("req_p50_ms", median(p50_ms[1]), "ms");
  result.metric("req_p99_ms", tail_ms[1], "ms");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
