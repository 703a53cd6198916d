#pragma once
// One client socket as an explicit state machine, owned by exactly one
// EventLoop (docs/SERVER.md):
//
//     kReadRequest ──parser complete──▶ kDispatched
//          ▲                                │ pool runs handler,
//          │ keep-alive                     │ posts completion
//          └──────── kWriteResponse ◀───────┘
//
// kReadRequest covers both "idle keep-alive" (parser buffer empty) and
// "request arriving" (partial bytes buffered) — the distinction drives
// the serve_connections_idle_keepalive gauge and the idle-timeout 408.
// While a request is dispatched the connection stops reading (epoll
// interest drops to 0), so pipelined requests are served strictly in
// order and a connection holds at most one in-flight request.
//
// Every method runs on the owning loop's thread; the only thing that
// escapes is the dispatched pool task, which touches no connection state
// and hands its result back via EventLoop::post keyed by (fd, id) — the
// id guards against fd reuse between dispatch and completion.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "util/http.hpp"

namespace wfr::serve {

class EventLoop;

class Connection {
 public:
  enum class State { kReadRequest, kDispatched, kWriteResponse };

  Connection(EventLoop& loop, int fd, std::uint64_t id);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  std::uint64_t id() const { return id_; }
  State state() const { return state_; }
  /// Idle keep-alive: between requests with nothing buffered.
  bool idle() const {
    return state_ == State::kReadRequest && parser_.buffer_empty();
  }
  std::uint64_t last_activity_ns() const { return last_activity_ns_; }

  /// Adds the socket to the loop's epoll set (EPOLLIN).  False on
  /// epoll_ctl failure — the caller drops the connection.
  bool register_with_loop();

  /// Epoll event entry points (loop thread).  Each may destroy the
  /// connection via EventLoop::close_connection; callers must not touch
  /// it afterwards.
  void on_readable();
  void on_writable();
  void on_error();

  /// Completion of the dispatched request, delivered by the loop.  The
  /// spans are the pool-side pieces of the request trace (queue_wait,
  /// serialize); empty when untraced.
  void on_response(std::string wire, int status, bool close_after,
                   std::vector<obs::TraceSpan> spans);

  /// Idle-deadline expiry (or drain cutoff, when draining).  Mid-request
  /// the client gets a best-effort 408; either way the connection closes.
  void on_timeout(bool draining);

 private:
  /// Parses as many buffered bytes as the state machine allows: at most
  /// one request reaches kDispatched; framing errors turn into a closing
  /// error response.
  void process_buffered();
  /// Hands one parsed request to the worker pool, or sheds with the
  /// canned 503 when the bounded queue is full.
  void dispatch_request(util::HttpRequest request, std::uint64_t parse_begin);
  /// Non-blocking send of write_buffer_; enables EPOLLOUT on short
  /// writes, finishes the request when the buffer drains or the peer
  /// vanishes.
  void try_flush();
  /// Response fully written (or peer gone): flush the trace, bump stats,
  /// then either return to keep-alive reading or close.
  void finish_request(bool sent);
  /// Switches the epoll interest set (no-op when unchanged).
  void set_events(std::uint32_t events);
  /// Stamps last_activity_ns_ when idle timeouts are enabled.
  void touch();
  void update_idle_gauge();
  /// Closes this request's trace: appends the root "request" span
  /// (method, path and status args) and flushes every collected span
  /// into the tracer's ring.
  void flush_trace(int status, std::uint64_t end_ns);

  EventLoop& loop_;
  int fd_;
  const std::uint64_t id_;
  State state_ = State::kReadRequest;
  util::HttpParser parser_;
  bool eof_ = false;
  std::uint32_t events_ = 0;

  // Write side (one response at a time).
  std::string write_buffer_;
  std::size_t write_offset_ = 0;
  bool close_after_write_ = false;
  /// The in-flight response came from a dispatched handler (vs a parser
  /// error), so it counts as a served request and gets a trace + log.
  bool was_dispatched_ = false;
  int status_ = 0;

  // Request timing/tracing (0 / empty when disabled).
  obs::Tracer* tracer_ = nullptr;
  bool tracing_ = false;
  bool access_log_ = false;
  bool timing_ = false;
  bool track_idle_ = false;
  std::uint64_t last_activity_ns_ = 0;
  std::uint64_t request_begin_ns_ = 0;
  std::uint64_t write_begin_ns_ = 0;
  obs::TraceRef trace_ref_;
  std::vector<obs::TraceSpan> trace_spans_;
  std::string method_;
  std::string path_;

  bool counted_idle_ = false;
};

}  // namespace wfr::serve
