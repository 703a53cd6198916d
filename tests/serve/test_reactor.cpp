// Adversarial-client coverage of the epoll reactor (docs/SERVER.md):
// slow-loris arrival, idle-timeout enforcement, mid-response aborts,
// partial-write backpressure, connection churn, and fd exhaustion — all
// asserting the server stays deterministic and responsive.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/app.hpp"
#include "serve/loopback_client.hpp"
#include "serve/server.hpp"

namespace wfr::serve {
namespace {

using namespace std::chrono_literals;

/// A raw Server (no App) on an ephemeral port with a deterministic
/// /healthz and a large-body /big route; serve_forever runs on its own
/// thread and drains on destruction.
class RawServer {
 public:
  explicit RawServer(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<Server>(options);
    server_->route("GET", "/healthz", [](const util::HttpRequest&) {
      util::HttpResponse response;
      response.content_type = "text/plain";
      response.body = "ok\n";
      return response;
    });
    server_->route("GET", "/big", [](const util::HttpRequest&) {
      util::HttpResponse response;
      response.content_type = "text/plain";
      response.body = big_body();
      return response;
    });
    port_ = server_->start();
    thread_ = std::thread([this] { server_->serve_forever(); });
  }

  ~RawServer() { stop(); }

  /// Requests the drain and waits for serve_forever to return.
  void stop() {
    server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  /// 4 MiB with position-dependent bytes, so truncation or reordering in
  /// the partial-write path cannot produce a false pass.
  static const std::string& big_body() {
    static const std::string body = [] {
      std::string out;
      out.resize(4 * 1024 * 1024);
      for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<char>('a' + (i * 31 + i / 257) % 26);
      return out;
    }();
    return body;
  }

  int port() const { return port_; }
  Server& server() { return *server_; }

 private:
  std::unique_ptr<Server> server_;
  int port_ = 0;
  std::thread thread_;
};

/// This process's open fds, from /proc/self/fd (less the one the listing
/// itself holds open).
std::size_t open_fd_count() {
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++entries;
  return entries - 1;
}

/// Lowers this process's soft RLIMIT_NOFILE so exactly one more fd can be
/// opened, and restores the old limit when it goes out of scope.  The
/// limit caps fd numbers and a new fd takes the lowest free number, so
/// the limit is set one above that number.
class OneFreeFd {
 public:
  OneFreeFd() {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    EXPECT_GE(lowest_free, 0);
    ::close(lowest_free);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~OneFreeFd() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

  OneFreeFd(const OneFreeFd&) = delete;
  OneFreeFd& operator=(const OneFreeFd&) = delete;

 private:
  rlimit saved_{};
};

ServerOptions fast_options() {
  ServerOptions options;
  options.port = 0;
  options.jobs = 2;
  options.poll_interval_ms = 20;
  return options;
}

TEST(ReactorTest, SlowLorisRequestCompletesWithinIdleTimeout) {
  // Bytes trickle in one at a time, but each arrives well inside the
  // idle deadline: the request must still be served normally.
  ServerOptions options = fast_options();
  options.idle_timeout_ms = 2000;
  RawServer server(options);

  LoopbackClient client(server.port());
  const std::string request = LoopbackClient::format_request("GET", "/healthz");
  for (std::size_t i = 0; i < request.size(); ++i) {
    client.send_raw(std::string_view(request.data() + i, 1));
    if (i % 8 == 0) std::this_thread::sleep_for(1ms);
  }
  const ClientResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
  EXPECT_EQ(server.server().stats().timeouts.load(), 0u);
}

TEST(ReactorTest, StalledMidRequestConnectionGets408AndCloses) {
  ServerOptions options = fast_options();
  options.idle_timeout_ms = 100;
  RawServer server(options);

  LoopbackClient client(server.port());
  client.send_raw("GET /healthz HTTP/1.1\r\nHos");  // ...and never finishes
  const ClientResponse response = client.read_response();
  EXPECT_EQ(response.status, 408);
  for (int i = 0; i < 200 && !client.at_eof(); ++i)
    std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(client.at_eof());
  EXPECT_EQ(server.server().stats().timeouts.load(), 1u);
}

TEST(ReactorTest, IdleKeepAliveConnectionClosesSilentlyAtTimeout) {
  ServerOptions options = fast_options();
  options.idle_timeout_ms = 100;
  RawServer server(options);

  LoopbackClient client(server.port());
  const ClientResponse response = client.request("GET", "/healthz");
  EXPECT_EQ(response.status, 200);

  // Between requests the close is silent: EOF, no 408 bytes.
  bool eof = false;
  for (int i = 0; i < 300 && !(eof = client.at_eof()); ++i)
    std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(eof);
  EXPECT_EQ(server.server().stats().requests.load(), 1u);
}

TEST(ReactorTest, MidResponseClientCloseKeepsServing) {
  RawServer server(fast_options());

  // Ask for 4 MiB and vanish immediately — several times.  The loop must
  // absorb the EPIPE/ECONNRESET on its write path without disturbing
  // anyone else.
  for (int i = 0; i < 5; ++i) {
    LoopbackClient aborter(server.port());
    aborter.send_raw(LoopbackClient::format_request("GET", "/big"));
    aborter.close_now();
  }

  LoopbackClient client(server.port());
  const ClientResponse response = client.request("GET", "/big");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, RawServer::big_body());
  const ClientResponse health = client.request("GET", "/healthz");
  EXPECT_EQ(health.body, "ok\n");
}

TEST(ReactorTest, PartialWriteBackpressureDeliversTheFullBody) {
  RawServer server(fast_options());

  // A tiny receive window forces the server's non-blocking send into
  // EAGAIN: the response must finish over EPOLLOUT, byte-exact.
  LoopbackClient client(server.port(), /*rcvbuf_bytes=*/4096);
  client.send_raw(LoopbackClient::format_request("GET", "/big"));
  std::this_thread::sleep_for(100ms);  // let the kernel buffers fill
  const ClientResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  ASSERT_EQ(response.body.size(), RawServer::big_body().size());
  EXPECT_EQ(response.body, RawServer::big_body());

  // The connection survives backpressure: keep-alive still works.
  const ClientResponse health = client.request("GET", "/healthz");
  EXPECT_EQ(health.body, "ok\n");
}

TEST(ReactorTest, ConnectionChurnInWavesReturnsToIdle) {
  RawServer server(fast_options());

  // Churn scaled to the fd budget: each open connection costs two fds in
  // this process (client + server side), plus headroom for everything
  // else.  The CI serve-smoke job raises RLIMIT_NOFILE so the full 10k
  // target runs there; constrained sandboxes scale down.
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  const std::size_t wave =
      std::min<std::size_t>(500, (limit.rlim_cur - 128) / 4);
  ASSERT_GT(wave, 0u);
  const std::size_t waves =
      std::min<std::size_t>(20, 10000 / std::max<std::size_t>(wave, 1));

  std::size_t opened = 0;
  for (std::size_t w = 0; w < waves; ++w) {
    std::vector<std::unique_ptr<LoopbackClient>> clients;
    clients.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i)
      clients.push_back(std::make_unique<LoopbackClient>(server.port()));
    opened += wave;
    // A few requests per wave prove the loop is still serving while the
    // churn is in flight.
    const ClientResponse response = clients[wave / 2]->request("GET", "/healthz");
    EXPECT_EQ(response.body, "ok\n");
    clients.clear();  // closes the whole wave
  }

  // Every accepted connection must eventually be reaped.
  const auto active = [&server] {
    return server.server().stats().connections_active.load();
  };
  for (int i = 0; i < 500 && active() != 0; ++i)
    std::this_thread::sleep_for(10ms);
  EXPECT_EQ(active(), 0);
  EXPECT_GE(server.server().stats().accepted.load(), opened);

  LoopbackClient client(server.port());
  EXPECT_EQ(client.request("GET", "/healthz").body, "ok\n");
}

TEST(ReactorTest, FdExhaustionPausesAcceptsWithoutSpinningAndRecovers) {
  const std::size_t fds_before = open_fd_count();
  ServerOptions options = fast_options();
  options.io_threads = 2;  // both loops share the listener
  {
    RawServer server(options);
    const Server::Stats& stats = server.server().stats();
    const auto begin = std::chrono::steady_clock::now();
    std::unique_ptr<LoopbackClient> waiting;
    {
      // The client socket takes the last fd under the limit, so every
      // loop's accept4 of its connection fails with EMFILE.
      OneFreeFd limit;
      waiting = std::make_unique<LoopbackClient>(server.port());
      waiting->send_raw(LoopbackClient::format_request("GET", "/healthz"));
      for (int i = 0; i < 1000 && stats.accept_errors.load() == 0; ++i)
        std::this_thread::sleep_for(2ms);
      // Ten ticks of failed accepts.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(10 * options.poll_interval_ms));

      // Read before the limit goes back up and a loop may accept.
      const std::uint64_t errors = stats.accept_errors.load();
      const double ticks =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - begin)
              .count() /
          options.poll_interval_ms;
      EXPECT_EQ(stats.accepted.load(), 0u);
      EXPECT_GE(errors, 1u);
      // At most one failed accept per loop per tick: a paused loop
      // neither sleeps nor spins.  A hot spin would count thousands.
      EXPECT_LE(static_cast<double>(errors), 2 * (ticks + 2)) << ticks;
    }

    // With the limit restored, a loop's next sweep puts the listener back
    // and the client that waited in the backlog gets its answer.
    const timeval receive_timeout{10, 0};
    ::setsockopt(waiting->fd(), SOL_SOCKET, SO_RCVTIMEO, &receive_timeout,
                 sizeof(receive_timeout));
    const ClientResponse response = waiting->read_response();
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "ok\n");
    EXPECT_EQ(stats.accepted.load(), 1u);

    // Exhausted again, the loops pause; the drain must still finish and
    // close the keep-alive connection.
    {
      OneFreeFd limit;
      LoopbackClient queued(server.port());
      const std::uint64_t seen = stats.accept_errors.load();
      for (int i = 0; i < 1000 && stats.accept_errors.load() == seen; ++i)
        std::this_thread::sleep_for(2ms);
      EXPECT_GT(stats.accept_errors.load(), seen);
      server.stop();
    }
    EXPECT_TRUE(waiting->at_eof());
  }
  // Every accepted socket, the listener and the loops' fds are closed.
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(ReactorTest, LoopAndConnectionGaugesExportOnMetrics) {
  ServerOptions options = fast_options();
  App app{AppOptions{}};
  Server server(options);
  app.bind(server);
  const int port = server.start();
  std::thread serve_thread([&server] { server.serve_forever(); });

  LoopbackClient holder(port);  // one live keep-alive connection
  const ClientResponse first = holder.request("GET", "/healthz");
  EXPECT_EQ(first.status, 200);

  LoopbackClient scraper(port);
  const ClientResponse metrics = scraper.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("serve_connections_active"), std::string::npos);
  EXPECT_NE(metrics.body.find("serve_connections_idle_keepalive"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("serve_accept_errors"), std::string::npos);
  EXPECT_NE(metrics.body.find("serve_loop0_connections"), std::string::npos);
  EXPECT_NE(metrics.body.find("serve_loop0_inflight"), std::string::npos);
  EXPECT_NE(metrics.body.find("serve_loop0_queue_depth"), std::string::npos);
  // Both clients are connected while /metrics renders: the gauge must see
  // at least those two.  Parse the sample line, not the # TYPE comment.
  const std::string needle = "\nserve_connections_active ";
  const std::size_t at = metrics.body.find(needle);
  ASSERT_NE(at, std::string::npos);
  const double value = std::atof(metrics.body.c_str() + at + needle.size());
  EXPECT_GE(value, 2.0);

  server.request_stop();
  serve_thread.join();
}

}  // namespace
}  // namespace wfr::serve
