#include "api/serve.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/admission.h"
#include "api/request.h"
#include "api/response.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/failpoint.h"

namespace deeppool::api {

namespace {

/// The registry counters whose per-request movement the journal records.
struct CacheCounters {
  std::int64_t plan_hits;
  std::int64_t plan_misses;
  std::int64_t calib_hits;
  std::int64_t calib_misses;

  static CacheCounters read() {
    obs::Registry& reg = obs::registry();
    return CacheCounters{reg.counter("plan_cache/hits").value(),
                         reg.counter("plan_cache/misses").value(),
                         reg.counter("sched/calib_hits").value(),
                         reg.counter("sched/calib_misses").value()};
  }
};

// Clamped at zero: a {"op": "stats", "reset": true} request zeroes the
// counters between the two reads, and a negative "delta" would read as
// cache behaviour rather than the reset it is.
std::int64_t delta(std::int64_t after, std::int64_t before) {
  return std::max<std::int64_t>(0, after - before);
}

enum class LineStatus { kEof, kLine, kOversized };

/// getline with a byte cap: an over-cap line is consumed to its newline —
/// the stream stays line-synced — but only the first `cap` bytes are
/// kept, and the caller answers it in-band instead of parsing it.
LineStatus read_line_capped(std::istream& in, std::string& line,
                            std::size_t cap) {
  line.clear();
  bool oversized = false;
  bool any = false;
  char c;
  while (in.get(c)) {
    any = true;
    if (c == '\n') return oversized ? LineStatus::kOversized : LineStatus::kLine;
    if (line.size() < cap) {
      line.push_back(c);
    } else {
      oversized = true;
    }
  }
  if (!any) return LineStatus::kEof;
  return oversized ? LineStatus::kOversized : LineStatus::kLine;
}

}  // namespace

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

ServeLineResult process_serve_line(Service& service,
                                   const ServeOptions& options,
                                   ServeLineInput input,
                                   const Journal* journal) {
  const auto start = std::chrono::steady_clock::now();
  const CacheCounters before =
      journal ? CacheCounters::read() : CacheCounters{};
  // Whether handle() ran decides where the journal's trace id comes from;
  // handle() stamps this thread's trace slot with a fresh id first thing,
  // so the slot's id moving is the reliable (and thread-local, hence
  // concurrency-proof) signal.
  const std::uint64_t trace_before = service.last_request_trace().trace_id;
  ServeLineResult out;
  Response& response = out.response;
  JournalRecord& record = out.record;
  std::string op;
  switch (input.kind) {
    case ServeLineInput::Kind::kShedQueue:
      service.note_shed();
      response = service.error_response(
          "shed: queue full (max_queue_depth=" +
          std::to_string(options.max_queue_depth) + "); retry later");
      response.retry_after_ms = input.retry_after_ms;
      record.error = response.error;
      record.shed = "queue";
      record.retry_after_ms = input.retry_after_ms;
      break;
    case ServeLineInput::Kind::kShedInFlight:
      service.note_shed();
      response = service.error_response(
          "shed: at capacity (max_in_flight=" +
          std::to_string(options.max_in_flight) + "); retry later");
      response.retry_after_ms = input.retry_after_ms;
      record.error = response.error;
      record.shed = "in_flight";
      record.retry_after_ms = input.retry_after_ms;
      break;
    case ServeLineInput::Kind::kOversized:
      response = service.error_response(
          "input line exceeds max_line_bytes (" +
          std::to_string(options.max_line_bytes) + "); line dropped");
      record.error = response.error;
      break;
    case ServeLineInput::Kind::kRequest:
      try {
        // The injection point for malformed-transport faults; inside the
        // try so an injected error answers in-band like real parse
        // failures.
        DP_FAILPOINT("serve/parse");
        const Request request = request_from_json(Json::parse(input.line));
        op = request.op();
        response = service.handle(request);
        record.ok = true;
      } catch (const util::CancelledError& e) {
        // A deadline that fired mid-operation: the answer carries the
        // partial results final at the cancellation boundary.
        response = service.error_response(e.what(), op);
        response.partial = e.partial();
        record.error = e.what();
      } catch (const std::exception& e) {
        // Malformed input or a failing handler answers in-band; the next
        // line is served regardless.
        response = service.error_response(e.what(), op);
        record.error = e.what();
      }
      break;
  }
  if (journal != nullptr) {
    const bool handled =
        service.last_request_trace().trace_id != trace_before;
    const RequestTrace& trace = service.last_request_trace();
    record.op = op;
    // Handled lines reuse the trace's wall clock (what --slow-ms is
    // thresholded against); a line that never reached handle() gets a
    // fresh id from the same sequence and the transport's own clock.
    record.trace_id = handled ? trace.trace_id : service.allocate_trace_id();
    record.wall_ms =
        handled ? trace.wall_s * 1e3
                : std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                          .count() *
                      1e3;
    const CacheCounters after = CacheCounters::read();
    record.plan_cache_hits = delta(after.plan_hits, before.plan_hits);
    record.plan_cache_misses = delta(after.plan_misses, before.plan_misses);
    record.calib_hits = delta(after.calib_hits, before.calib_hits);
    record.calib_misses = delta(after.calib_misses, before.calib_misses);
    if (handled && journal->slow(record.wall_ms)) {
      record.spans = obs::closed_spans(trace.spans);
    }
  }
  return out;
}

bool journal_append_degrading(Journal& journal, const JournalRecord& record) {
  try {
    journal.append(to_json(record));
    return true;
  } catch (const std::exception& e) {
    // Graceful degradation: the journal is an audit aid, not the service.
    // One record is lost (counted), journalling is disabled for the rest
    // of the session, and serving continues.
    obs::registry().counter("degraded/journal").inc();
    obs::registry().counter("degraded/journal_records_lost").inc();
    std::cerr << "journal disabled after write failure: " << e.what()
              << '\n';
    return false;
  }
}

int run_serve(std::istream& in, std::ostream& out, Service& service,
              const ServeOptions& options) {
  if (options.max_line_bytes < 1) {
    throw std::invalid_argument("max_line_bytes must be >= 1 (got " +
                                std::to_string(options.max_line_bytes) + ")");
  }
  AdmissionController admission(
      AdmissionOptions{options.max_in_flight, options.max_queue_depth});
  std::optional<Journal> journal;
  if (!options.journal.path.empty()) journal.emplace(options.journal);

  std::deque<ServeLineInput> pending;
  const auto push_line = [&](LineStatus status, std::string&& line) {
    if (status == LineStatus::kLine && blank(line)) return;
    ServeLineInput entry;
    if (status == LineStatus::kOversized) {
      entry.kind = ServeLineInput::Kind::kOversized;
    } else if (!admission.try_enqueue()) {
      entry.kind = ServeLineInput::Kind::kShedQueue;
      entry.retry_after_ms = admission.shed();
    } else {
      entry.line = std::move(line);
    }
    pending.push_back(std::move(entry));
  };

  std::string line;
  for (;;) {
    if (pending.empty()) {
      const LineStatus status =
          read_line_capped(in, line, options.max_line_bytes);
      if (status == LineStatus::kEof) break;
      push_line(status, std::move(line));
      if (pending.empty()) continue;  // blank line
    }
    if (options.max_queue_depth > 0) {
      // Eager drain: pull every already-buffered line into the backlog so
      // the depth cap sees the real burst, not one line at a time. Only
      // buffered bytes are touched — an interactive client is never
      // blocked on input it has not sent.
      while (in.rdbuf()->in_avail() > 0) {
        const LineStatus status =
            read_line_capped(in, line, options.max_line_bytes);
        if (status == LineStatus::kEof) break;
        push_line(status, std::move(line));
      }
    }

    ServeLineInput entry = std::move(pending.front());
    pending.pop_front();
    const auto start = std::chrono::steady_clock::now();
    const bool admitted = entry.kind == ServeLineInput::Kind::kRequest;
    if (admitted) {
      // Never sheds: this loop handles one line at a time and releases the
      // slot before reading on, so an in-flight cap >= 1 always has room.
      admission.dequeue();
      admission.try_admit();
    }
    ServeLineResult served = process_serve_line(
        service, options, std::move(entry), journal ? &*journal : nullptr);
    if (admitted) {
      admission.release();
      admission.observe_handle_ms(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count() *
          1e3);
    }
    out << to_json(served.response).dump() << '\n';
    out.flush();
    if (journal && !journal_append_degrading(*journal, served.record)) {
      journal.reset();
    }
  }
  return 0;
}

int run_serve(std::istream& in, std::ostream& out, Service& service) {
  return run_serve(in, out, service, ServeOptions{});
}

}  // namespace deeppool::api
