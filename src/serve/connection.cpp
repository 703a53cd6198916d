#include "serve/connection.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "serve/reactor.hpp"
#include "serve/server.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace wfr::serve {

namespace {

/// A closed child span of the request trace `ref`, stamped with the
/// thread that measured it (the loop or a pool worker).
obs::TraceSpan child_span(obs::Tracer& tracer, const obs::TraceRef& ref,
                          const char* name, std::uint64_t begin_ns,
                          std::uint64_t end_ns) {
  obs::TraceSpan span;
  span.trace_id = ref.trace_id;
  span.span_id = tracer.allocate_span_id();
  span.parent_id = ref.span_id;
  span.name = name;
  span.category = "serve";
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  span.thread = obs::Tracer::current_thread_slot();
  return span;
}

}  // namespace

Connection::Connection(EventLoop& loop, int fd, std::uint64_t id)
    : loop_(loop), fd_(fd), id_(id) {
  Server& server = loop_.server();
  util::HttpLimits limits;
  limits.max_body_bytes = server.options_.max_body_bytes;
  parser_ = util::HttpParser(limits);

  tracer_ = server.tracer();
  tracing_ = tracer_ != nullptr && tracer_->enabled();
  access_log_ = util::log_level() == util::LogLevel::kDebug;
  timing_ = tracing_ || access_log_;
  track_idle_ = server.options_.idle_timeout_ms > 0;
  if (track_idle_) last_activity_ns_ = obs::Tracer::now_ns();

  server.stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
  update_idle_gauge();
}

Connection::~Connection() {
  Server& server = loop_.server();
  server.stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  if (counted_idle_)
    server.stats_.connections_idle.fetch_sub(1, std::memory_order_relaxed);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Connection::register_with_loop() {
  events_ = EPOLLIN;
  epoll_event event{};
  event.events = events_;
  event.data.fd = fd_;
  return ::epoll_ctl(loop_.epoll_fd_, EPOLL_CTL_ADD, fd_, &event) == 0;
}

void Connection::set_events(std::uint32_t events) {
  if (events == events_) return;
  events_ = events;
  epoll_event event{};
  event.events = events_;
  event.data.fd = fd_;
  ::epoll_ctl(loop_.epoll_fd_, EPOLL_CTL_MOD, fd_, &event);
}

void Connection::touch() {
  if (track_idle_) last_activity_ns_ = obs::Tracer::now_ns();
}

void Connection::update_idle_gauge() {
  const bool now_idle = idle() && !eof_;
  if (now_idle == counted_idle_) return;
  counted_idle_ = now_idle;
  loop_.server().stats_.connections_idle.fetch_add(
      now_idle ? 1 : -1, std::memory_order_relaxed);
}

void Connection::flush_trace(int status, std::uint64_t end_ns) {
  obs::TraceSpan root;
  root.trace_id = trace_ref_.trace_id;
  root.span_id = trace_ref_.span_id;
  root.name = "request";
  root.category = "serve";
  root.begin_ns = request_begin_ns_;
  root.end_ns = end_ns;
  root.args.emplace_back("method", method_);
  root.args.emplace_back("path", path_);
  root.args.emplace_back("status", std::to_string(status));
  trace_spans_.push_back(std::move(root));
  tracer_->record_batch(std::move(trace_spans_));
  trace_spans_.clear();
}

void Connection::on_readable() {
  char buffer[16384];
  while (state_ == State::kReadRequest) {
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n > 0) {
      touch();
      parser_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      process_buffered();
      // A short read usually means the socket is drained; level-triggered
      // epoll re-reports anything left, so don't spin on read().
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
    } else if (n == 0) {
      eof_ = true;
      // EOF in kReadRequest: clean close when idle, aborted request
      // otherwise — either way there is nothing left to answer.
      loop_.close_connection(*this);
      return;
    } else {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      loop_.close_connection(*this);
      return;
    }
  }
  if (state_ == State::kReadRequest) update_idle_gauge();
}

void Connection::process_buffered() {
  while (state_ == State::kReadRequest) {
    util::HttpRequest request;
    if (timing_ && request_begin_ns_ == 0)
      request_begin_ns_ = obs::Tracer::now_ns();
    const std::uint64_t parse_begin = tracing_ ? obs::Tracer::now_ns() : 0;
    const util::HttpParser::Status status = parser_.next(&request);
    if (status == util::HttpParser::Status::kNeedMore) {
      // Idle keep-alive time must not count into the next request.
      if (parser_.buffer_empty()) request_begin_ns_ = 0;
      return;
    }
    if (status == util::HttpParser::Status::kError) {
      // Framing errors are answered without a dispatch (and without a
      // trace, matching the previous server): serialize inline and close.
      util::HttpResponse error =
          util::http_error(parser_.error_status(), parser_.error_message());
      error.close = true;
      was_dispatched_ = false;
      status_ = error.status;
      close_after_write_ = true;
      write_buffer_ = util::serialize_response(error);
      write_offset_ = 0;
      write_begin_ns_ = 0;
      state_ = State::kWriteResponse;
      try_flush();
      return;
    }
    dispatch_request(std::move(request), parse_begin);
    return;
  }
}

void Connection::dispatch_request(util::HttpRequest request,
                                  std::uint64_t parse_begin) {
  Server& server = loop_.server();
  if (tracing_) {
    trace_ref_ = tracer_->begin_trace();
    if (trace_ref_.valid())
      trace_spans_.push_back(child_span(*tracer_, trace_ref_, "parse",
                                        parse_begin, obs::Tracer::now_ns()));
  }
  method_ = request.method;
  path_.assign(request.path());
  const std::uint64_t dispatch_ns = timing_ ? obs::Tracer::now_ns() : 0;

  EventLoop* const loop = &loop_;
  const int fd = fd_;
  const std::uint64_t id = id_;
  Server* const server_ptr = &server;
  obs::Tracer* const tracer = tracing_ ? tracer_ : nullptr;
  const obs::TraceRef ref = trace_ref_;

  auto task = [loop, fd, id, server_ptr, tracer, ref, dispatch_ns,
               request = std::move(request)]() mutable {
    std::vector<obs::TraceSpan> spans;
    const bool tracing = tracer != nullptr && ref.valid();
    if (tracing && dispatch_ns != 0)
      spans.push_back(child_span(*tracer, ref, "queue_wait", dispatch_ns,
                                 obs::Tracer::now_ns()));

    util::HttpResponse response;
    {
      // Continues the request trace on this pool thread: the handler's
      // own spans (App endpoint span, sweep evaluate spans) nest inside.
      obs::SpanScope handle(tracer, "handle", "serve", ref);
      response = server_ptr->dispatch(request);
    }
    response.close = response.close || !request.keep_alive();

    const std::uint64_t serialize_begin =
        tracing ? obs::Tracer::now_ns() : 0;
    std::string wire = util::serialize_response(response);
    if (tracing)
      spans.push_back(child_span(*tracer, ref, "serialize", serialize_begin,
                                 obs::Tracer::now_ns()));

    loop->post([loop, fd, id, status = response.status,
                close_after = response.close, wire = std::move(wire),
                spans = std::move(spans)]() mutable {
      loop->complete(fd, id, std::move(wire), status, close_after,
                     std::move(spans));
    });
  };

  if (!server.pool_.try_submit(std::move(task))) {
    // Bounded queue full: shed with the canned 503.  The write is a
    // single best-effort non-blocking attempt — a client that cannot
    // take the bytes right now gets a plain close instead of occupying
    // the loop (satellite: the old blocking send_all could stall every
    // connection behind one unreadable peer).
    server.stats_.shed.fetch_add(1, std::memory_order_relaxed);
    const std::string& wire = canned_response_503();
    [[maybe_unused]] const ssize_t n =
        ::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (tracing_ && trace_ref_.valid())
      flush_trace(503, obs::Tracer::now_ns());
    loop_.close_connection(*this);
    return;
  }

  state_ = State::kDispatched;
  loop_.note_dispatch();
  update_idle_gauge();
  // Stop reading while the request is in flight: pipelined successors
  // stay buffered (kernel- or parser-side) until the response is out.
  set_events(0);
}

void Connection::on_response(std::string wire, int status, bool close_after,
                             std::vector<obs::TraceSpan> spans) {
  loop_.note_completion();
  for (obs::TraceSpan& span : spans) trace_spans_.push_back(std::move(span));
  was_dispatched_ = true;
  status_ = status;
  close_after_write_ = close_after;
  write_buffer_ = std::move(wire);
  write_offset_ = 0;
  write_begin_ns_ = tracing_ ? obs::Tracer::now_ns() : 0;
  state_ = State::kWriteResponse;
  try_flush();
}

void Connection::on_writable() {
  if (state_ != State::kWriteResponse) return;
  try_flush();
}

void Connection::on_error() { loop_.close_connection(*this); }

void Connection::try_flush() {
  while (write_offset_ < write_buffer_.size()) {
    const ssize_t n =
        ::send(fd_, write_buffer_.data() + write_offset_,
               write_buffer_.size() - write_offset_,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      write_offset_ += static_cast<std::size_t>(n);
      touch();
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Kernel send buffer full: wait for EPOLLOUT, resume in
      // on_writable.  Reads stay disabled until the response is out.
      set_events(EPOLLOUT);
      return;
    }
    finish_request(false);  // peer is gone (EPIPE/ECONNRESET/...)
    return;
  }
  finish_request(true);
}

void Connection::finish_request(bool sent) {
  Server& server = loop_.server();
  const std::uint64_t end_ns = timing_ ? obs::Tracer::now_ns() : 0;
  if (was_dispatched_) {
    if (tracing_ && trace_ref_.valid()) {
      if (write_begin_ns_ != 0)
        trace_spans_.push_back(child_span(*tracer_, trace_ref_, "write",
                                          write_begin_ns_, end_ns));
      flush_trace(status_, end_ns);
    }
    server.stats_.requests.fetch_add(1, std::memory_order_relaxed);
    if (access_log_) {
      const double latency_ms =
          static_cast<double>(end_ns - request_begin_ns_) * 1e-6;
      util::log_debug(util::format(
          "access trace=%llu %s %s %d %zu %.3fms",
          static_cast<unsigned long long>(trace_ref_.trace_id),
          method_.c_str(), path_.c_str(), status_, write_buffer_.size(),
          latency_ms));
    }
  }
  request_begin_ns_ = 0;
  trace_ref_ = obs::TraceRef{};
  trace_spans_.clear();
  write_buffer_.clear();
  write_offset_ = 0;
  if (!sent || close_after_write_ || eof_ || loop_.draining()) {
    loop_.close_connection(*this);
    return;
  }
  state_ = State::kReadRequest;
  close_after_write_ = false;
  was_dispatched_ = false;
  set_events(EPOLLIN);
  update_idle_gauge();
  // A pipelined successor may already be fully buffered; serve it
  // without waiting for another epoll wake-up.
  process_buffered();
}

void Connection::on_timeout(bool draining) {
  if (!draining && state_ == State::kReadRequest && !parser_.buffer_empty()) {
    // Slow-loris defense: the request started arriving but stalled past
    // the idle deadline.  Tell the client (best effort) and drop.
    loop_.server().stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    const std::string& wire = canned_response_408();
    [[maybe_unused]] const ssize_t n =
        ::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  } else if (!draining) {
    loop_.server().stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  loop_.close_connection(*this);
}

}  // namespace wfr::serve
