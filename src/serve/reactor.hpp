#pragma once
// The event-driven half of serve::Server (docs/SERVER.md): one EventLoop
// per I/O thread, each owning an epoll instance, an eventfd wake, and
// the exclusive right to touch its connections' state.
//
// Threading model:
//   * Every loop has the server's one listen socket in its epoll set and
//     accepts its own connections (pausing for one poll tick when out of
//     fds), so a socket is born on the thread that owns it; from then on
//     only that loop reads, writes, or mutates the connection.
//   * CPU-heavy handler work runs on the server's exec::ThreadPool.  A
//     parsed request is dispatched there; the finished response is
//     posted back to the owning loop through an exec::CompletionQueue
//     whose wake hook writes the loop's eventfd — so a blocked
//     epoll_wait learns about completions without polling.
//   * Because connection state is single-threaded by construction, the
//     reactor needs no per-connection locks; the only cross-thread
//     traffic is the completion queue and a handful of stats atomics.
//
// Shutdown: request_drain() makes the loop remove the listener for good,
// close idle keep-alive connections immediately, give partially received
// requests one poll tick to finish arriving, and keep running until
// every dispatched request has completed and its response is written —
// the drain contract the serve-smoke CI job asserts.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/completion_queue.hpp"
#include "obs/tracer.hpp"

namespace wfr::serve {

class Connection;
class Server;

/// A live snapshot of one loop, exported on /metrics
/// (serve_loop<N>_connections / _inflight / _queue_depth).
struct LoopStats {
  std::size_t connections = 0;  // sockets this loop currently owns
  std::size_t inflight = 0;     // requests dispatched, response not yet sent
  std::size_t queue_depth = 0;  // completions posted but not yet drained
};

class EventLoop {
 public:
  explicit EventLoop(Server& server);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread.  Call once.
  void start();
  /// Joins the loop thread (returns once the loop has fully drained).
  void join();

  /// Runs `fn` on the loop thread (any thread; wakes the loop).
  void post(std::function<void()> fn);

  /// Delivers a finished response to the connection identified by
  /// (fd, id); silently dropped if the connection is gone (fd reuse is
  /// what the id guards against).  Called from completions posted by
  /// pool tasks — i.e. always on the loop thread.
  void complete(int fd, std::uint64_t id, std::string wire, int status,
                bool close_after, std::vector<obs::TraceSpan> spans);

  /// Begins the graceful drain described above (any thread).
  void request_drain();

  LoopStats stats() const;
  Server& server() { return server_; }

  /// True once request_drain() was observed (loop thread reads this to
  /// refuse new request dispatches).
  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  friend class Connection;

  void run();
  /// Accepts from the shared listener until EAGAIN, creating and serving
  /// each new connection on this loop (loop thread only).
  void accept_connections();
  /// Adds (true) or removes (false) the listener in this loop's epoll set
  /// (loop thread only; no-op when unchanged).
  void set_listening(bool on);
  /// Removes a connection from the loop (loop thread only).  The socket
  /// closes with the Connection, whose destruction is deferred to the end
  /// of the current iteration (see graveyard_).
  void close_connection(Connection& conn);
  /// Closes idle / expired connections; returns when the next deadline
  /// would need a wake-up.
  void sweep_timeouts(std::uint64_t now_ns);

  /// Bookkeeping for the inflight gauge, called by Connection around a
  /// dispatch's lifetime.
  void note_dispatch() { inflight_.fetch_add(1, std::memory_order_relaxed); }
  void note_completion() { inflight_.fetch_sub(1, std::memory_order_relaxed); }

  Server& server_;
  /// The server's listen socket, shared by every loop; the Server closes
  /// it only after all loops have joined.
  const int listen_fd_;
  /// Whether listen_fd_ is in this loop's epoll set; loop thread only.
  bool listening_ = false;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;
  exec::CompletionQueue completions_;
  /// fd -> connection; loop thread only.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  /// Connections closed this iteration: destruction is deferred past the
  /// current event batch so a Connection method that closes itself never
  /// runs on freed memory (the socket itself closes immediately).
  std::vector<std::unique_ptr<Connection>> graveyard_;
  std::uint64_t next_connection_id_ = 1;
  std::atomic<std::size_t> connection_count_{0};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<bool> draining_{false};
  /// Loop-thread view of draining_ (runs the one-time idle-close pass).
  bool drain_began_ = false;
  /// Monotonic deadline after which still-partial requests are closed
  /// (set when the drain begins; 0 before).
  std::uint64_t drain_deadline_ns_ = 0;
  std::uint64_t last_sweep_ns_ = 0;
};

}  // namespace wfr::serve
