// Typed service responses: the envelope every deeppool answer travels in.
//
// A Response separates the *payload* — the operation's output JSON, byte
// for byte what the one-shot CLI prints for the same request on a fresh
// Service — from the *envelope* around it: ok/error status, the echoed
// op, the service's cumulative counters and the version stamp. `deeppool
// serve` writes one compact envelope per NDJSON line; the one-shot CLI
// unwraps and prints just the payload. One parity caveat: a schedule
// payload's result.fleet.plan_cache_{hits,misses} count that run's own
// cache lookups, so on a *warm* Service those two fields (and only those)
// reflect what the resident cache already held.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/json.h"

namespace deeppool::api {

/// Cumulative counters of one resident Service — the proof that state
/// actually stays warm across requests (plan_cache_hits climbing across a
/// serve session is the whole point of the daemon).
struct ServiceStats {
  std::int64_t requests = 0;        ///< handle() calls (failed ones included)
  std::int64_t errors = 0;          ///< error responses issued
  std::int64_t plan_cache_hits = 0;    ///< resident core::PlanCache, total
  std::int64_t plan_cache_misses = 0;  ///< resident core::PlanCache, total
  std::int64_t plan_cache_size = 0;    ///< distinct plans resident
  std::int64_t calibrations_loaded = 0;  ///< distinct table files resident
  // Concurrent-transport traffic. Serialized only when nonzero, so
  // sessions that never shed or lease (every stdio session today) emit
  // byte-identical envelopes to before these fields existed.
  std::int64_t sheds = 0;           ///< transport admission sheds
  std::int64_t leases_granted = 0;  ///< per-request pool leases handed out
  std::int64_t lease_workers_granted = 0;  ///< workers across all leases
};

Json to_json(const ServiceStats& stats);
ServiceStats service_stats_from_json(const Json& j);

struct Response {
  bool ok = true;
  std::string op;     ///< echoed request op; "" when it never parsed
  std::string error;  ///< set when !ok
  Json payload;       ///< the operation output (ok responses only)
  /// Stats snapshot taken after the request was handled; absent only on
  /// responses constructed outside a Service.
  std::optional<ServiceStats> service;
  /// Failure-only extras. `partial` rides a deadline-exceeded error: the
  /// fleet tallies that were final at the event boundary where cancellation
  /// was observed (see util::CancelledError::partial). `retry_after_ms`
  /// rides an admission-shed error: the service's backoff hint. Both absent
  /// on success and on plain errors.
  std::optional<Json> partial;
  std::optional<double> retry_after_ms;
};

/// Envelope codec. Keys: "ok", "version" always; "op" when non-empty;
/// "payload" on success; "error" on failure; "service" when stats are
/// attached. Byte-stable: to_json(response_from_json(j)).dump(k) ==
/// j.dump(k) for canonical envelopes.
Json to_json(const Response& response);
Response response_from_json(const Json& j);

}  // namespace deeppool::api
