#pragma once
// An event-driven HTTP/1.1 server built on util::http, an epoll reactor
// (serve/reactor.hpp), and the exec::ThreadPool worker pool — the
// serving surface behind `wfr serve` (docs/SERVER.md).
//
// Threading model:
//   * The caller of serve_forever() starts io_threads event loops, which
//     share the listen socket and accept their own connections; on
//     EMFILE/ENFILE-class failures a loop pauses accepting for one poll
//     tick instead of hot-spinning (stats().accept_errors counts).
//   * Each EventLoop owns its connections outright (serve/connection.hpp
//     has the state machine): parsing and response writes happen on the
//     loop thread; handler dispatch runs on the shared ThreadPool and the
//     finished response is posted back to the owning loop.
//   * The pool's pending queue is bounded by max_queue; when it is full a
//     parsed request is shed with a canned 503 written best-effort
//     non-blocking (a client that cannot take the bytes gets a plain
//     close — shedding never occupies the loop).
//
// Graceful shutdown (request_stop() or SIGINT/SIGTERM via
// install_signal_handlers): serve_forever wakes through a self-pipe; the
// loops stop accepting, close idle keep-alive connections, give partially
// received requests one poll tick to complete, and finish every request
// already dispatched.  serve_forever closes the listen socket and returns
// only after every loop has drained and the pool is idle — the drain
// contract the serve-smoke CI job asserts.
//
// Determinism: handlers are pure functions of the request, and responses
// carry no clocks or identifiers, so a given request body produces
// byte-identical response bytes at any worker count (verified by
// tests/serve and the bench_serve byte-identity check).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "serve/reactor.hpp"
#include "util/http.hpp"

namespace wfr::obs {
class Tracer;
}  // namespace wfr::obs

namespace wfr::serve {

struct ServerOptions {
  /// Bind address.  The default stays loopback-only; expose deliberately.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see start()).
  int port = 8080;
  /// Worker threads for handler dispatch; 0 = exec::resolve_jobs()
  /// (WFR_JOBS, then hardware).
  int jobs = 0;
  /// Requests allowed to wait for a worker before a loop sheds with 503.
  /// Must be >= 1.
  int max_queue = 64;
  /// Request body limit (413 beyond it).
  std::size_t max_body_bytes = 4 * 1024 * 1024;
  /// Tick for the event-loop timeout sweeps (which also end an accept
  /// pause after fd exhaustion) and the drain grace a partially received
  /// request gets at shutdown.
  int poll_interval_ms = 250;
  /// Event-loop (reactor) threads; 0 = 1, or 2 when the resolved worker
  /// count is >= 4.  Each loop owns an epoll set and a share of the
  /// connections.
  int io_threads = 0;
  /// A connection idle (or stalled mid-request / mid-write) longer than
  /// this is closed — mid-request with a best-effort 408, the slow-loris
  /// defense.  0 disables.
  int idle_timeout_ms = 60000;
};

/// A request handler: pure function of the request.
using Handler = std::function<util::HttpResponse(const util::HttpRequest&)>;

/// Canned wire bytes for the shed (503) and idle-timeout (408) responses:
/// built once, written best-effort non-blocking, never allocated per
/// event.
const std::string& canned_response_503();
const std::string& canned_response_408();

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a handler for an exact (method, path) pair.  A request
  /// whose path matches but method does not gets 405; an unknown path
  /// gets 404.  Must be called before start().
  void route(const std::string& method, const std::string& path,
             Handler handler);

  /// Binds and listens; returns the bound port (resolves port 0).
  /// Throws util::Error on bind/listen failure.
  int start();

  /// Runs the event loops until request_stop(), then drains them and
  /// returns.  Call start() first.
  void serve_forever();

  /// Signals serve_forever to drain and return (safe from any thread and
  /// from signal handlers via the installed handlers).
  void request_stop();

  /// Routes SIGINT and SIGTERM to request_stop() of this server (one
  /// server per process; throws if another Server already installed
  /// handlers).
  void install_signal_handlers();

  int jobs() const { return pool_.jobs(); }
  int io_threads() const { return static_cast<int>(loops_.size()); }

  /// Attaches a request-lifecycle tracer (not owned; null detaches).  Each
  /// served request becomes one trace — a root "request" span with parse /
  /// queue_wait / handle / serialize / write children assembled across the
  /// loop-thread/pool-thread handoff.  Spans never touch response bytes,
  /// so the /v1 byte-identity contract is unaffected
  /// (docs/OBSERVABILITY.md).
  void set_tracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }
  obs::Tracer* tracer() const {
    return tracer_.load(std::memory_order_acquire);
  }

  /// Lifetime totals and live gauges, readable while serving.
  struct Stats {
    std::atomic<std::uint64_t> accepted{0};  // connections the loops accepted
    std::atomic<std::uint64_t> shed{0};      // requests answered 503
    std::atomic<std::uint64_t> requests{0};  // requests fully served
    std::atomic<std::uint64_t> accept_errors{0};  // failed accept(2) calls
    std::atomic<std::uint64_t> timeouts{0};  // closes by idle timeout
    // Gauges (current values, not totals):
    std::atomic<std::int64_t> connections_active{0};
    std::atomic<std::int64_t> connections_idle{0};  // idle keep-alive subset
  };
  const Stats& stats() const { return stats_; }

  /// Per-loop live snapshots (connections / in-flight / queue depth), in
  /// loop-index order.  Valid after start().
  std::vector<LoopStats> loop_stats() const;

 private:
  friend class Connection;
  friend class EventLoop;

  util::HttpResponse dispatch(const util::HttpRequest& request) const;

  ServerOptions options_;
  exec::ThreadPool pool_;
  std::map<std::pair<std::string, std::string>, Handler> routes_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::atomic<obs::Tracer*> tracer_{nullptr};
  Stats stats_;
};

}  // namespace wfr::serve
