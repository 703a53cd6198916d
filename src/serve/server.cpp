#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstring>

#include "util/error.hpp"

namespace wfr::serve {

namespace {

/// listen(2) backlog (the kernel clamps to net.core.somaxconn); sized
/// for connect storms from the sustained-load harness.
constexpr int kListenBacklog = 4096;

/// Self-pipe write end for the installed SIGINT/SIGTERM handlers; -1 when
/// no server has handlers installed.  One server per process may install.
std::atomic<int> g_signal_wake_fd{-1};

extern "C" void wfr_serve_signal_handler(int) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  const char byte = 's';
  // A full pipe already guarantees a pending wake-up; ignore the result.
  [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

const std::string& canned_response_503() {
  static const std::string wire = [] {
    util::HttpResponse overloaded =
        util::http_error(503, "server is saturated; retry later");
    overloaded.close = true;
    return util::serialize_response(overloaded);
  }();
  return wire;
}

const std::string& canned_response_408() {
  static const std::string wire = [] {
    util::HttpResponse timeout =
        util::http_error(408, "request not received within idle timeout");
    timeout.close = true;
    return util::serialize_response(timeout);
  }();
  return wire;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), pool_(options_.jobs) {
  util::require(options_.max_queue >= 1, "max_queue must be >= 1");
  util::require(options_.port >= 0 && options_.port <= 65535,
                "port must be in [0, 65535]");
  util::require(options_.poll_interval_ms >= 1,
                "poll_interval_ms must be >= 1");
  util::require(options_.io_threads >= 0, "io_threads must be >= 0");
  util::require(options_.idle_timeout_ms >= 0,
                "idle_timeout_ms must be >= 0");
  pool_.set_queue_limit(static_cast<std::size_t>(options_.max_queue));
  if (options_.io_threads == 0)
    options_.io_threads = pool_.jobs() >= 4 ? 2 : 1;
}

Server::~Server() {
  request_stop();
  // Drain order matters: loops finish every dispatched request (the pool
  // must still be alive to run them), then the pool goes idle, and only
  // then may members be destroyed.
  for (const std::unique_ptr<EventLoop>& loop : loops_) loop->request_drain();
  for (const std::unique_ptr<EventLoop>& loop : loops_) loop->join();
  pool_.wait_idle();
  if (g_signal_wake_fd.load(std::memory_order_relaxed) == wake_pipe_[1] &&
      wake_pipe_[1] >= 0) {
    g_signal_wake_fd.store(-1, std::memory_order_relaxed);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
  close_if_open(listen_fd_);
  close_if_open(wake_pipe_[0]);
  close_if_open(wake_pipe_[1]);
}

void Server::route(const std::string& method, const std::string& path,
                   Handler handler) {
  util::require(static_cast<bool>(handler), "route needs a handler");
  util::require(listen_fd_ < 0, "routes must be registered before start()");
  const bool inserted =
      routes_.emplace(std::make_pair(method, path), std::move(handler))
          .second;
  util::require(inserted, "duplicate route %s %s", method.c_str(),
                path.c_str());
}

int Server::start() {
  util::require(listen_fd_ < 0, "server already started");
  if (::pipe(wake_pipe_) != 0)
    throw util::Error("pipe: " + std::string(std::strerror(errno)));

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0)
    throw util::Error("socket: " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw util::InvalidArgument("bad host address '" + options_.host + "'");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw util::Error("bind " + options_.host + ":" +
                      std::to_string(options_.port) + ": " +
                      std::strerror(errno));
  if (::listen(listen_fd_, kListenBacklog) != 0)
    throw util::Error("listen: " + std::string(std::strerror(errno)));

  sockaddr_in bound{};
  socklen_t length = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &length) != 0)
    throw util::Error("getsockname: " + std::string(std::strerror(errno)));
  loops_.reserve(static_cast<std::size_t>(options_.io_threads));
  for (int i = 0; i < options_.io_threads; ++i)
    loops_.push_back(std::make_unique<EventLoop>(*this));
  return static_cast<int>(ntohs(bound.sin_port));
}

void Server::request_stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (wake_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::install_signal_handlers() {
  util::require(wake_pipe_[1] >= 0,
                "install_signal_handlers requires start() first");
  int expected = -1;
  util::require(g_signal_wake_fd.compare_exchange_strong(
                    expected, wake_pipe_[1], std::memory_order_relaxed),
                "another Server already installed signal handlers");
  struct sigaction action{};
  action.sa_handler = wfr_serve_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: serve_forever's read must wake
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

std::vector<LoopStats> Server::loop_stats() const {
  std::vector<LoopStats> stats;
  stats.reserve(loops_.size());
  for (const std::unique_ptr<EventLoop>& loop : loops_)
    stats.push_back(loop->stats());
  return stats;
}

void Server::serve_forever() {
  util::require(listen_fd_ >= 0, "call start() before serve_forever()");
  for (const std::unique_ptr<EventLoop>& loop : loops_) loop->start();

  // The loops accept and serve; this thread only waits for the byte that
  // request_stop() or a signal handler writes to the self-pipe.
  char byte = 0;
  while (::read(wake_pipe_[0], &byte, 1) < 0 && errno == EINTR)
    continue;

  // Drain: the loops stop accepting and finish everything already
  // received (see the shutdown contract in the header).  The listen
  // socket closes only after every loop has joined, so no loop can call
  // accept4 on a closed fd whose number was reused.
  stop_.store(true, std::memory_order_release);
  for (const std::unique_ptr<EventLoop>& loop : loops_) loop->request_drain();
  for (const std::unique_ptr<EventLoop>& loop : loops_) loop->join();
  pool_.wait_idle();
  close_if_open(listen_fd_);
}

util::HttpResponse Server::dispatch(const util::HttpRequest& request) const {
  const auto it = routes_.find(std::make_pair(request.method, request.path()));
  if (it != routes_.end()) {
    try {
      return it->second(request);
    } catch (const std::exception& e) {
      // Handlers map their own domain errors to 4xx; anything escaping is
      // a server-side failure.  The message is a deterministic function
      // of the request, preserving byte-identical responses.
      return util::http_error(500, e.what());
    }
  }
  for (const auto& [key, handler] : routes_) {
    if (key.second == request.path())
      return util::http_error(405, "method " + request.method +
                                       " not allowed for " + request.path());
  }
  return util::http_error(404, "no route for " + request.path());
}

}  // namespace wfr::serve
