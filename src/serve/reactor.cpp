#include "serve/reactor.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/connection.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace wfr::serve {

namespace {
/// Nanoseconds per millisecond, a std::uint64_t like every timestamp here.
constexpr std::uint64_t kNsPerMs = 1'000'000;
}  // namespace

EventLoop::EventLoop(Server& server)
    : server_(server), listen_fd_(server.listen_fd_) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0)
    throw util::Error("epoll_create1: " + std::string(std::strerror(errno)));
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    ::close(epoll_fd_);
    throw util::Error("eventfd: " + std::string(std::strerror(errno)));
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &event) != 0) {
    ::close(event_fd_);
    ::close(epoll_fd_);
    throw util::Error("epoll_ctl(eventfd): " +
                      std::string(std::strerror(errno)));
  }
  completions_.set_wake([fd = event_fd_] {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
  });
}

EventLoop::~EventLoop() {
  if (thread_.joinable()) thread_.join();
  connections_.clear();
  graveyard_.clear();
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::start() {
  util::require(!thread_.joinable(), "event loop already started");
  thread_ = std::thread([this] { run(); });
}

void EventLoop::join() {
  if (thread_.joinable()) thread_.join();
}

void EventLoop::accept_connections() {
  Server::Stats& stats = server_.stats_;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      const int error = errno;
      if (error == EAGAIN || error == EWOULDBLOCK) return;
      if (error == EINTR || error == ECONNABORTED) continue;
      stats.accept_errors.fetch_add(1, std::memory_order_relaxed);
      // Out of fds (or kernel memory), retrying now would spin at 100%
      // CPU: the listener leaves the epoll set until the next timeout
      // sweep, one poll tick away, puts it back.
      const bool pause = error == EMFILE || error == ENFILE ||
                         error == ENOBUFS || error == ENOMEM;
      util::log_warn("accept failed: " + std::string(std::strerror(error)) +
                     (pause ? "; pausing accepts for one poll tick" : ""));
      if (pause) set_listening(false);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    stats.accepted.fetch_add(1, std::memory_order_relaxed);
    auto connection =
        std::make_unique<Connection>(*this, fd, next_connection_id_++);
    if (!connection->register_with_loop()) {
      util::log_warn("epoll_ctl(add) failed for accepted socket: " +
                     std::string(std::strerror(errno)));
      continue;  // dtor closes the socket
    }
    Connection* raw = connection.get();
    connections_.emplace(fd, std::move(connection));
    connection_count_.store(connections_.size(), std::memory_order_relaxed);
    // Bytes may already be waiting (the client often writes immediately
    // after connect); serve them without another epoll round-trip.
    raw->on_readable();
  }
}

void EventLoop::set_listening(bool on) {
  if (on == listening_) return;
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  // Removal cannot fail for a registered fd; a failed add is retried by
  // the next timeout sweep.
  const int op = on ? EPOLL_CTL_ADD : EPOLL_CTL_DEL;
  if (::epoll_ctl(epoll_fd_, op, listen_fd_, &event) != 0 && on) {
    util::log_warn("epoll_ctl(add listener): " +
                   std::string(std::strerror(errno)));
    return;
  }
  listening_ = on;
}

void EventLoop::post(std::function<void()> fn) {
  completions_.post(std::move(fn));
}

void EventLoop::request_drain() {
  draining_.store(true, std::memory_order_release);
  post([] {});  // wake the loop so it notices
}

void EventLoop::complete(int fd, std::uint64_t id, std::string wire,
                         int status, bool close_after,
                         std::vector<obs::TraceSpan> spans) {
  const auto it = connections_.find(fd);
  if (it == connections_.end() || it->second->id() != id) return;
  it->second->on_response(std::move(wire), status, close_after,
                          std::move(spans));
}

LoopStats EventLoop::stats() const {
  LoopStats stats;
  stats.connections = connection_count_.load(std::memory_order_relaxed);
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  stats.queue_depth = completions_.depth();
  return stats;
}

void EventLoop::close_connection(Connection& conn) {
  const auto it = connections_.find(conn.fd());
  if (it == connections_.end() || it->second.get() != &conn) return;
  graveyard_.push_back(std::move(it->second));
  connections_.erase(it);
  connection_count_.store(connections_.size(), std::memory_order_relaxed);
}

void EventLoop::sweep_timeouts(std::uint64_t now_ns) {
  const bool draining = drain_began_;
  const std::uint64_t idle_ns =
      static_cast<std::uint64_t>(server_.options_.idle_timeout_ms) * kNsPerMs;
  std::vector<Connection*> doomed;
  for (const auto& [fd, conn] : connections_) {
    if (conn->state() == Connection::State::kDispatched) continue;
    if (draining) {
      // Idle keep-alives close immediately; a partially received request
      // (or a stalled write) gets until the drain deadline.
      if (conn->idle() || now_ns >= drain_deadline_ns_)
        doomed.push_back(conn.get());
      continue;
    }
    if (idle_ns != 0 && now_ns - conn->last_activity_ns() >= idle_ns)
      doomed.push_back(conn.get());
  }
  for (Connection* conn : doomed) conn->on_timeout(draining);
}

void EventLoop::run() {
  epoll_event events[64];
  std::vector<std::function<void()>> batch;
  const int poll_interval_ms = server_.options_.poll_interval_ms;

  set_listening(true);
  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && !drain_began_) {
      drain_began_ = true;
      set_listening(false);  // for good: the drain accepts nothing new
      const std::uint64_t now = obs::Tracer::now_ns();
      drain_deadline_ns_ =
          now + static_cast<std::uint64_t>(poll_interval_ms) * kNsPerMs;
      sweep_timeouts(now);
      graveyard_.clear();
    }
    if (drain_began_ && connections_.empty()) break;

    int timeout_ms = poll_interval_ms;
    if (drain_began_) {
      const std::uint64_t now = obs::Tracer::now_ns();
      const std::uint64_t remaining =
          drain_deadline_ns_ > now ? drain_deadline_ns_ - now : 0;
      const int to_deadline = static_cast<int>(remaining / kNsPerMs) + 1;
      if (to_deadline < timeout_ms) timeout_ms = to_deadline;
    }

    const int ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      util::log_warn("epoll_wait: " + std::string(std::strerror(errno)));
      continue;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == event_fd_) {
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(event_fd_, &count, sizeof(count));
        continue;
      }
      if (fd == listen_fd_) {
        accept_connections();
        continue;
      }
      // Look up per event: a connection closed earlier in this batch (or
      // replaced after fd reuse) simply misses.
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      const std::uint32_t mask = events[i].events;
      if ((mask & EPOLLIN) != 0) {
        conn->on_readable();
      } else if ((mask & EPOLLOUT) != 0) {
        conn->on_writable();
      } else if ((mask & (EPOLLERR | EPOLLHUP)) != 0) {
        conn->on_error();
      }
    }

    // Completions posted by pool tasks (responses, drain wake-ups) run
    // after I/O so a response never races its own read.
    batch.clear();
    completions_.drain_into(batch);
    for (std::function<void()>& fn : batch) fn();

    const std::uint64_t now = obs::Tracer::now_ns();
    const std::uint64_t sweep_interval =
        static_cast<std::uint64_t>(poll_interval_ms) * kNsPerMs;
    if (drain_began_ || now - last_sweep_ns_ >= sweep_interval) {
      last_sweep_ns_ = now;
      // A listener paused by fd exhaustion rejoins the epoll set here.
      if (!drain_began_) set_listening(true);
      sweep_timeouts(now);
    }
    graveyard_.clear();
  }
}

}  // namespace wfr::serve
