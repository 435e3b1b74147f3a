#include "io/server.h"

#include <chrono>
#include <csignal>
#include <list>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/response.h"
#include "obs/metrics.h"
#include "util/failpoint.h"

namespace deeppool::io {

namespace {

/// The signal handlers' one channel to the serving loop: async-signal-safe
/// to set, polled at accept-tick granularity. Process-wide because signal
/// disposition is process-wide; the CLI runs one Server at a time.
std::atomic<bool> g_signal_stop{false};

void on_stop_signal(int) { g_signal_stop.store(true); }

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Server::Server(api::Service& service, const ListenAddress& address,
               ServerOptions options)
    : service_(service), options_(std::move(options)), listener_(address) {
  if (options_.max_connections < 1) {
    throw std::invalid_argument("--max-connections must be >= 1 (got " +
                                std::to_string(options_.max_connections) +
                                ")");
  }
  if (options_.drain_ms < 0) {
    throw std::invalid_argument("--drain-ms must be >= 0 (got " +
                                std::to_string(options_.drain_ms) + ")");
  }
  if (options_.serve.max_line_bytes < 1) {
    throw std::invalid_argument("max_line_bytes must be >= 1");
  }
}

Server::~Server() {
  // run() joined its threads before returning; a Server destroyed without
  // ever entering run() has nothing to reap.
  listener_.close();
}

void Server::install_signal_handlers() {
  g_signal_stop.store(false);
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
}

void Server::diag(const std::string& line) {
  if (options_.diagnostics == nullptr) return;
  std::lock_guard<std::mutex> lk(diag_mu_);
  *options_.diagnostics << "deeppool serve: " << line << "\n" << std::flush;
}

int Server::run() {
  if (!options_.serve.journal.path.empty()) {
    journal_.emplace(options_.serve.journal);
    journal_enabled_.store(true);
  }
  admission_.emplace(api::AdmissionOptions{options_.serve.max_in_flight,
                                           options_.serve.max_queue_depth});
  // Resolve the worker budget (and any budget error) before the first
  // client, not inside its request.
  service_.leases();

  obs::Registry& registry = obs::registry();
  obs::Counter& accepts = registry.counter("io/accepts");
  obs::Counter& rejected = registry.counter("io/conn_rejected");
  obs::Gauge& connections = registry.gauge("io/connections");

  diag("listening on " + to_string(listener_.address()));

  std::list<Conn> conns;
  std::int64_t next_id = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (g_signal_stop.load()) stop();
    // Reap finished connections so a long session does not accumulate
    // joinable threads; the drain epilogue joins whatever remains.
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->done.load()) {
        if (it->thread.joinable()) it->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    std::optional<Connection> accepted;
    try {
      DP_FAILPOINT("io/accept");
      accepted = listener_.accept(/*timeout_ms=*/100);
    } catch (const util::InjectedFault&) {
      // The connection (if any) stays in the kernel backlog; the next
      // tick retries it. This is exactly the transient-accept-failure
      // shape the failpoint exists to rehearse.
      continue;
    } catch (const std::exception& e) {
      registry.counter("io/accept_errors").inc();
      diag(std::string("accept error: ") + e.what());
      continue;
    }
    if (!accepted.has_value()) continue;
    accepts.inc();
    if (open_connections_.load() >= options_.max_connections) {
      rejected.inc();
      const api::Response response = service_.error_response(
          "too many connections (max_connections=" +
          std::to_string(options_.max_connections) + "); retry later");
      accepted->write_line(to_json(response).dump());
      continue;  // destructor closes the socket
    }
    conns.emplace_back();
    Conn& conn = conns.back();
    conn.id = ++next_id;
    conn.connection = std::move(*accepted);
    open_connections_.fetch_add(1);
    connections.set(open_connections_.load());
    conn.thread = std::thread([this, &conn] { serve_connection(conn); });
  }

  // Drain: stop accepting (done — the loop exited), give in-flight
  // requests the drain budget, then cancel and force-close stragglers.
  draining_.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::milli>(options_.drain_ms);
  while (active_requests_.load() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (Conn& conn : conns) {
    conn.cancel.cancel();
    conn.connection.shutdown();  // kicks a read_line blocked on the peer
  }
  for (Conn& conn : conns) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  connections.set(0.0);
  listener_.close();
  diag("drained and stopped");
  return 0;
}

void Server::serve_connection(Conn& conn) {
  obs::Registry& registry = obs::registry();
  obs::Gauge& connections = registry.gauge("io/connections");
  obs::Histogram& lease_wait = registry.histogram("io/lease_wait_s");
  obs::Counter& drained = registry.counter("serve/drained");

  std::string line;
  for (;;) {
    const Connection::ReadStatus status =
        conn.connection.read_line(line, options_.serve.max_line_bytes);
    if (status == Connection::ReadStatus::kEof) break;
    if (status == Connection::ReadStatus::kLine && api::blank(line)) continue;

    api::ServeLineInput input;
    bool admitted = false;
    if (status == Connection::ReadStatus::kOversized) {
      input.kind = api::ServeLineInput::Kind::kOversized;
    } else if (!admission_->try_enqueue()) {
      input.kind = api::ServeLineInput::Kind::kShedQueue;
      input.retry_after_ms = admission_->shed();
    } else if (options_.serve.max_queue_depth > 0) {
      // A queue is configured: hold the queue slot and wait for a
      // handling slot. Shedding happened above, at the queue gate; the
      // wait ends early if the connection is being force-closed.
      admitted = admission_->admit_blocking(&conn.cancel);
      admission_->dequeue();
      if (admitted) {
        input.kind = api::ServeLineInput::Kind::kRequest;
        input.line = std::move(line);
      } else {
        input.kind = api::ServeLineInput::Kind::kShedInFlight;
        input.retry_after_ms = admission_->shed();
      }
    } else {
      // No queue: at-capacity requests shed immediately, the same answer
      // the stdio loop gives.
      admission_->dequeue();
      admitted = admission_->try_admit();
      if (admitted) {
        input.kind = api::ServeLineInput::Kind::kRequest;
        input.line = std::move(line);
      } else {
        input.kind = api::ServeLineInput::Kind::kShedInFlight;
        input.retry_after_ms = admission_->shed();
      }
    }

    active_requests_.fetch_add(1);
    const auto started = std::chrono::steady_clock::now();
    const api::Journal* journal_ptr =
        journal_enabled_.load() ? &*journal_ : nullptr;
    api::ServeLineResult served;
    if (admitted) {
      try {
        // The lease is the concurrency throttle: its fair share shrinks
        // as more connections are open, and acquire() blocks while the
        // whole worker budget is checked out.
        util::PoolLease lease = service_.leases().acquire(
            open_connections_.load(), &conn.cancel);
        lease_wait.observe(lease.wait_s());
        api::RequestScope scope(&lease, &conn.cancel);
        served = api::process_serve_line(service_, options_.serve,
                                         std::move(input), journal_ptr);
      } catch (const util::CancelledError& e) {
        // Cancelled while waiting for workers (drain force-close): the
        // request never ran; answer in-band like any handler error.
        served.response = service_.error_response(e.what());
        served.record.error = e.what();
        served.record.trace_id = service_.allocate_trace_id();
        served.record.wall_ms = elapsed_ms(started);
      }
      admission_->release();
      admission_->observe_handle_ms(elapsed_ms(started));
    } else {
      served = api::process_serve_line(service_, options_.serve,
                                       std::move(input), journal_ptr);
    }
    const bool wrote =
        conn.connection.write_line(to_json(served.response).dump());
    if (draining_.load()) drained.inc();
    active_requests_.fetch_sub(1);
    if (journal_ptr != nullptr) {
      served.record.connection = conn.id;
      std::lock_guard<std::mutex> lk(journal_mu_);
      if (journal_enabled_.load() &&
          !api::journal_append_degrading(*journal_, served.record)) {
        journal_enabled_.store(false);
      }
    }
    if (!wrote) break;  // peer hung up mid-response
  }

  open_connections_.fetch_sub(1);
  connections.set(open_connections_.load());
  conn.done.store(true);
}

}  // namespace deeppool::io
