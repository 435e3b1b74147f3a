// `deeppool serve` — the warm-cache NDJSON daemon loop.
//
// One request object per input line, one compact Response envelope per
// output line, over a single resident api::Service: successive schedule
// requests hit the warm core::PlanCache (the envelope's cumulative
// "service" counters climb across the session) and calibration tables
// load once. A line that fails to parse or to handle produces a
// structured {"ok": false, "error": ...} response on the same stream —
// it never kills the process. EOF ends the loop.
//
// With ServeOptions::journal.path set (--journal FILE) the loop also
// appends one audit record per input line to a rotating NDJSON journal
// (api/journal.h): trace id, op, outcome, wall time, cache-hit deltas,
// and — for requests slower than --slow-ms — the full span tree.
//
// Fault tolerance (see api/admission.h and util/cancel.h): a bounded
// backlog (--max-queue-depth) sheds over-limit lines in-band with a
// retry_after_ms hint, responses staying in input order; an oversized
// line (--max-line-bytes) is consumed and answered in-band; a request
// whose deadline fires answers {"ok": false, "error": "deadline
// exceeded", "partial": {...}}; and a journal write failure disables
// journalling for the rest of the session ("degraded/journal" counters)
// instead of killing the daemon.
#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>

#include "api/journal.h"
#include "api/service.h"

namespace deeppool::api {

struct ServeOptions {
  /// journal.path empty = no journal (the default); see JournalOptions
  /// for the rotation cap and slow-request threshold.
  JournalOptions journal;
  /// Admission caps, 0 = unlimited (see api/admission.h). max_in_flight
  /// binds per handled request (trivially satisfied by this
  /// single-threaded loop, enforced uniformly for a concurrent
  /// transport); max_queue_depth bounds lines read but not yet handled —
  /// the loop drains buffered input eagerly, and lines past the cap are
  /// shed at enqueue but still answered in input order.
  int max_in_flight = 0;
  int max_queue_depth = 0;
  /// Longest accepted input line. An oversized line is consumed (the
  /// stream stays in sync) and answered in-band with a one-line error;
  /// must be >= 1 (std::invalid_argument otherwise).
  std::size_t max_line_bytes = 8ull * 1024 * 1024;
};

/// Drains `in`; returns the process exit code (0 — a stream that saw only
/// malformed requests still shut down cleanly). Blank lines are skipped.
/// Output is flushed per line so a piped client can interleave.
int run_serve(std::istream& in, std::ostream& out, Service& service,
              const ServeOptions& options);

/// Journal-less session (the common embedded/test entry point).
int run_serve(std::istream& in, std::ostream& out, Service& service);

// ---------------------------------------------------------------------------
// The per-line pipeline shared by the stdio loop above and the io::Server
// socket transport (src/io/server.h). Transports classify each input line
// (admission and framing are theirs — the stdio loop sheds at enqueue
// against its eager-drained backlog, the socket server sheds per
// connection against the shared AdmissionController) and hand the
// classified line here for the part that must answer identically over
// every transport: parse -> handle -> envelope, plus the journal record.

/// Whether `line` holds only spaces, tabs and carriage returns. Every
/// transport skips such lines without answering them.
bool blank(const std::string& line);

/// One classified input line. kRequest lines have already passed
/// admission — the transport holds the in-flight slot around the
/// process_serve_line call. Shed kinds carry the retry hint the transport
/// computed (AdmissionController::shed()).
struct ServeLineInput {
  enum class Kind { kRequest, kShedQueue, kShedInFlight, kOversized };
  Kind kind = Kind::kRequest;
  std::string line;           ///< kRequest only
  double retry_after_ms = 0;  ///< shed kinds only
};

/// What one line produced: the response envelope to write back, and —
/// when a journal was passed — the fully-populated record to append
/// (trace id, wall time, cache-hit deltas, slow-request spans). The
/// transport stamps JournalRecord::connection before appending.
struct ServeLineResult {
  Response response;
  JournalRecord record;
};

/// Processes one classified line against the service. Never throws for
/// line-level failures (malformed JSON, handler errors, fired deadlines
/// all answer in-band); shed/oversized kinds produce the canonical error
/// envelopes. `journal` only gates record bookkeeping and the slow-spans
/// threshold — appending (and degradation on append failure) stays with
/// the transport. Cache-hit deltas are exact for single-threaded
/// transports; under concurrent serving they are windows over the shared
/// registry counters and may attribute a neighbour request's traffic.
ServeLineResult process_serve_line(Service& service,
                                   const ServeOptions& options,
                                   ServeLineInput input,
                                   const Journal* journal);

/// Appends `record` to `journal`, degrading gracefully on failure: false =
/// the append failed ("degraded/journal" counters ticked, one stderr line
/// emitted) and the caller must stop journalling — the session continues
/// journal-less. io::Server serializes calls with its own lock and only
/// disables its Journal, since connection threads hold const pointers into
/// it concurrently.
bool journal_append_degrading(Journal& journal, const JournalRecord& record);

}  // namespace deeppool::api
