// Socket-level coverage of serve::Server + serve::App over loopback:
// routing and error statuses, keep-alive pipelining, load shedding,
// graceful drain, /metrics, and the byte-identity contract across worker
// counts (docs/SERVER.md).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "serve/app.hpp"
#include "serve/loopback_client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace wfr::serve {
namespace {

/// An App-backed server on an ephemeral port with serve_forever running on
/// its own thread; stops and drains on destruction.
class AppServer {
 public:
  explicit AppServer(ServerOptions options = ephemeral(),
                     AppOptions app_options = {})
      : app_(app_options) {
    options.port = 0;
    server_ = std::make_unique<Server>(options);
    app_.bind(*server_);
    port_ = server_->start();
    thread_ = std::thread([this] { server_->serve_forever(); });
  }

  ~AppServer() {
    server_->request_stop();
    thread_.join();
  }

  static ServerOptions ephemeral() {
    ServerOptions options;
    options.port = 0;
    options.jobs = 2;
    return options;
  }

  int port() const { return port_; }
  Server& server() { return *server_; }
  App& app() { return app_; }

 private:
  App app_;  // must outlive server_: handlers reference it during drain
  std::unique_ptr<Server> server_;
  int port_ = 0;
  std::thread thread_;
};

const char* kRooflineBody = R"({
  "system": "perlmutter-gpu",
  "workflow": {
    "name": "unit",
    "total_tasks": 600,
    "parallel_tasks": 120,
    "flops_per_node": 1.0e15,
    "fs_bytes_per_task": 2.0e11,
    "makespan_seconds": 1800
  }
})";

const char* kSweepBody = R"({
  "system": "perlmutter-gpu",
  "workflow": {"name": "unit", "total_tasks": 600, "parallel_tasks": 120,
               "flops_per_node": 1.0e15, "fs_bytes_per_task": 2.0e11},
  "params": {"nodes_per_task": [1, 2], "efficiency": [1, 0.8]},
  "format": "ndjson"
})";

TEST(ServeTest, HealthzServesOk) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response = client.request("GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST(ServeTest, UnknownRouteIs404) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response = client.request("GET", "/nope");
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("no route for /nope"), std::string::npos);
}

TEST(ServeTest, WrongMethodIs405) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response =
      client.request("GET", "/v1/roofline");
  EXPECT_EQ(response.status, 405);
}

TEST(ServeTest, MalformedJsonBodyIs400) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response =
      client.request("POST", "/v1/roofline", "{not json");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("error"), std::string::npos);
}

TEST(ServeTest, UnknownSystemPresetIs400) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response = client.request(
      "POST", "/v1/roofline",
      R"({"system": "cray-1", "workflow": {"total_tasks": 1, "parallel_tasks": 1}})");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("unknown system preset"), std::string::npos);
}

TEST(ServeTest, UnknownWorkflowTaskKeyIs400) {
  // "deps" is not "depends_on": the task list is rejected, not loaded as
  // a chain without edges.
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response = client.request(
      "POST", "/v1/roofline",
      R"({"system": "perlmutter-cpu", "workflow": {"tasks": [)"
      R"({"name": "a"}, {"name": "b", "deps": ["a"]}]}})");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("unknown task member 'deps' in task 'b'"),
            std::string::npos)
      << response.body;
}

TEST(ServeTest, OversizedBodyIs413AndCloses) {
  ServerOptions options = AppServer::ephemeral();
  options.max_body_bytes = 128;
  AppServer server(options);
  LoopbackClient client(server.port());
  const std::string big(4096, 'x');
  const ClientResponse response =
      client.request("POST", "/v1/roofline", big);
  EXPECT_EQ(response.status, 413);
  // Framing errors are unrecoverable; the server closes the connection.
  EXPECT_THROW(client.request("GET", "/healthz"), util::Error);
}

TEST(ServeTest, RooflineReportsBindingAndMeasurement) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response =
      client.request("POST", "/v1/roofline", kRooflineBody);
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"parallelism_wall\""), std::string::npos);
  EXPECT_NE(response.body.find("\"binding\""), std::string::npos);
  EXPECT_NE(response.body.find("\"ceilings\""), std::string::npos);
  EXPECT_NE(response.body.find("\"bound_class\""), std::string::npos);
}

TEST(ServeTest, SweepReturnsOnePointPerGridCell) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response =
      client.request("POST", "/v1/sweep", kSweepBody);
  ASSERT_EQ(response.status, 200);
  // 2 x 2 grid, NDJSON: one line per point.
  std::size_t lines = 0;
  for (const char c : response.body) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
}

// Builds a kSweepBody variant asking for shard index/count (stride mode).
std::string sharded_sweep_body(int count, int index) {
  std::string body(kSweepBody);
  const auto brace = body.rfind('}');
  body.insert(brace, ",\n  \"shard\": {\"count\": " + std::to_string(count) +
                         ", \"index\": " + std::to_string(index) + "}");
  return body;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i)
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  return lines;
}

TEST(ServeTest, ShardedSweepsReassembleTheUnshardedStream) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse whole =
      client.request("POST", "/v1/sweep", kSweepBody);
  ASSERT_EQ(whole.status, 200);
  const std::vector<std::string> rows = split_lines(whole.body);
  ASSERT_EQ(rows.size(), 4u);

  std::vector<std::vector<std::string>> parts;
  for (int index = 0; index < 2; ++index) {
    const ClientResponse part = client.request(
        "POST", "/v1/sweep", sharded_sweep_body(/*count=*/2, index));
    ASSERT_EQ(part.status, 200);
    parts.push_back(split_lines(part.body));
  }
  // Stride mode: shard i owns global rows congruent to i (mod 2), and
  // re-interleaving the part streams reproduces the unsharded bytes.
  ASSERT_EQ(parts[0].size(), 2u);
  ASSERT_EQ(parts[1].size(), 2u);
  for (std::size_t global = 0; global < rows.size(); ++global)
    EXPECT_EQ(parts[global % 2][global / 2], rows[global]) << global;
}

TEST(ServeTest, SweepPointCapAppliesPerShard) {
  AppOptions app_options;
  app_options.max_sweep_points = 2;
  AppServer server(AppServer::ephemeral(), app_options);
  LoopbackClient client(server.port());
  // The 2x2 grid exceeds an unsharded 2-point cap...
  const ClientResponse whole =
      client.request("POST", "/v1/sweep", kSweepBody);
  EXPECT_EQ(whole.status, 400);
  EXPECT_NE(whole.body.find("grid exceeds 2 points"), std::string::npos);
  // ...but each half of a 2-way split fits.
  const ClientResponse part = client.request(
      "POST", "/v1/sweep", sharded_sweep_body(/*count=*/2, /*index=*/0));
  EXPECT_EQ(part.status, 200);
}

TEST(ServeTest, SweepRejectsInvalidShard) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response = client.request(
      "POST", "/v1/sweep", sharded_sweep_body(/*count=*/2, /*index=*/2));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("shard index"), std::string::npos);
}

// The shard members are range-checked before they narrow to int:
// 2^32 + 2 used to answer 200 as shard 0 of 2.
TEST(ServeTest, SweepRejectsShardCountBeyondIntRange) {
  App app(AppOptions{.sweep_jobs = 1});
  std::string body(kSweepBody);
  body.insert(body.rfind('}'),
              ",\"shard\":{\"count\":4294967298,\"index\":0}");
  const util::HttpResponse response = app.sweep_from_bytes(body);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("shard.count must be an integer in [1, "
                               "2147483647], got 4294967298"),
            std::string::npos)
      << response.body;
}

// No inf in /v1 bodies: a rate so small that the seconds per task
// overflow is a 400 naming the workflow, the channel and the system.
TEST(ServeTest, RooflineRejectsNonFiniteSecondsPerTask) {
  App app(AppOptions{.sweep_jobs = 1});
  const util::HttpResponse response = app.roofline_from_bytes(R"({
    "system": {"name": "tiny", "total_nodes": 4,
               "node": {"peak_flops": 1e-300}},
    "workflow": {"name": "unit", "total_tasks": 600, "parallel_tasks": 120,
                 "flops_per_node": 1.0e15}})");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find(
                "workflow 'unit' needs inf s per task of flops on system "
                "'tiny'"),
            std::string::npos)
      << response.body;
}

TEST(ServeTest, SweepJsonFormatEchoesTheShard) {
  AppServer server;
  LoopbackClient client(server.port());
  std::string body = sharded_sweep_body(/*count=*/2, /*index=*/1);
  const auto format = body.find("\"ndjson\"");
  ASSERT_NE(format, std::string::npos);
  body.replace(format, 8, "\"json\"");
  const ClientResponse response =
      client.request("POST", "/v1/sweep", body);
  ASSERT_EQ(response.status, 200);
  const util::Json out = util::Json::parse(response.body);
  EXPECT_EQ(out.at("shard").at("count").as_int(), 2);
  EXPECT_EQ(out.at("shard").at("index").as_int(), 1);
  EXPECT_EQ(out.at("shard").as_object().find("mode"), nullptr)
      << response.body;
  EXPECT_EQ(out.at("points").as_array().size(), 2u);
}

// Rows are dealt to shards by stride only.  A body written for older
// servers may still say "mode": "stride" and gets the same bytes as one
// without it; "block" is a 400 naming the field, never a stride answer.
TEST(ServeTest, SweepShardModeBlockIsRejected) {
  App app(AppOptions{.sweep_jobs = 1});
  const auto body_with_mode = [](const std::string& mode) {
    std::string body = sharded_sweep_body(/*count=*/2, /*index=*/1);
    body.insert(body.rfind("}}"), mode);
    return body;
  };
  const util::HttpResponse block =
      app.sweep_from_bytes(body_with_mode(", \"mode\": \"block\""));
  EXPECT_EQ(block.status, 400);
  EXPECT_NE(block.body.find("shard.mode"), std::string::npos) << block.body;

  const util::HttpResponse plain = app.sweep_from_bytes(body_with_mode(""));
  const util::HttpResponse stride =
      app.sweep_from_bytes(body_with_mode(", \"mode\": \"stride\""));
  ASSERT_EQ(plain.status, 200) << plain.body;
  EXPECT_EQ(stride.status, 200);
  EXPECT_EQ(stride.body, plain.body);
}

TEST(ServeTest, PipelinedKeepAliveRequestsAnswerInOrder) {
  AppServer server;
  LoopbackClient client(server.port());
  client.send_raw(
      LoopbackClient::format_request("GET", "/healthz") +
      LoopbackClient::format_request("POST", "/v1/roofline", kRooflineBody) +
      LoopbackClient::format_request("GET", "/healthz"));
  const ClientResponse first = client.read_response();
  const ClientResponse second = client.read_response();
  const ClientResponse third = client.read_response();
  EXPECT_EQ(first.body, "ok\n");
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("\"parallelism_wall\""), std::string::npos);
  EXPECT_EQ(third.body, "ok\n");
}

TEST(ServeTest, ConnectionCloseIsHonored) {
  AppServer server;
  LoopbackClient client(server.port());
  client.send_raw(LoopbackClient::format_request("GET", "/healthz", "",
                                                 /*close=*/true));
  const ClientResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  // Wait for EOF (the worker closes after writing the response).
  for (int i = 0; i < 200 && !client.at_eof(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(client.at_eof());
}

TEST(ServeTest, ResponsesAreByteIdenticalAcrossWorkerCounts) {
  // The determinism contract: identical request bodies produce identical
  // response bytes at any worker count, even under concurrent clients.
  std::set<std::string> roofline_bytes;
  std::set<std::string> sweep_bytes;
  std::mutex collect_mutex;

  for (const int jobs : {1, 2, 8}) {
    ServerOptions options = AppServer::ephemeral();
    options.jobs = jobs;
    AppServer server(options);

    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&server, &roofline_bytes, &sweep_bytes,
                            &collect_mutex] {
        LoopbackClient client(server.port());
        for (int i = 0; i < 3; ++i) {
          const ClientResponse roofline =
              client.request("POST", "/v1/roofline", kRooflineBody);
          const ClientResponse sweep =
              client.request("POST", "/v1/sweep", kSweepBody);
          std::unique_lock<std::mutex> lock(collect_mutex);
          roofline_bytes.insert(roofline.raw);
          sweep_bytes.insert(sweep.raw);
        }
      });
    }
    for (std::thread& thread : clients) thread.join();
  }

  // 3 server configurations x 4 clients x 3 iterations each, one unique
  // byte sequence per endpoint.
  EXPECT_EQ(roofline_bytes.size(), 1u);
  EXPECT_EQ(sweep_bytes.size(), 1u);
}

/// A gate a blocking handler waits on, so tests control exactly when the
/// single worker becomes free.
class Gate {
 public:
  void open() {
    std::unique_lock<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void wait_open() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }
  void mark_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
  }
  void wait_entered(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, count] { return entered_ >= count; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  int entered_ = 0;
};

TEST(ServeTest, ShedsWith503WhenAcceptQueueIsFull) {
  Gate gate;
  ServerOptions options;
  options.port = 0;
  options.jobs = 1;
  options.max_queue = 1;
  Server server(options);
  server.route("GET", "/block", [&gate](const util::HttpRequest&) {
    gate.mark_entered();
    gate.wait_open();
    util::HttpResponse response;
    response.body = "done\n";
    return response;
  });
  const int port = server.start();
  std::thread serve_thread([&server] { server.serve_forever(); });

  // Occupy the only worker; wait until its handler is running so the
  // pending queue is observably empty.  Connection: close lets the worker
  // move on to the queued connection once released.
  LoopbackClient busy(port);
  busy.send_raw(
      LoopbackClient::format_request("GET", "/block", "", /*close=*/true));
  gate.wait_entered(1);

  // Fills the one queue slot.  Shedding happens at dispatch time (a
  // parsed request fails to enter the bounded pool queue), so wait until
  // the reactor has actually dispatched this request — two in flight:
  // one executing, one pending.
  LoopbackClient queued(port);
  queued.send_raw(
      LoopbackClient::format_request("GET", "/block", "", /*close=*/true));
  const auto inflight = [&server] {
    std::size_t total = 0;
    for (const LoopStats& loop : server.loop_stats()) total += loop.inflight;
    return total;
  };
  for (int i = 0; i < 500 && inflight() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(inflight(), 2u);
  ASSERT_EQ(server.stats().accepted.load(), 2u);

  // Third connection: queue full, shed with a canned 503.
  LoopbackClient shed(port);
  shed.send_raw(LoopbackClient::format_request("GET", "/block"));
  const ClientResponse rejected = shed.read_response();
  EXPECT_EQ(rejected.status, 503);
  EXPECT_NE(rejected.raw.find("Connection: close"), std::string::npos);
  EXPECT_EQ(server.stats().shed.load(), 1u);

  // Releasing the gate lets both accepted connections finish normally.
  gate.open();
  EXPECT_EQ(busy.read_response().body, "done\n");
  EXPECT_EQ(queued.read_response().body, "done\n");

  server.request_stop();
  serve_thread.join();
}

TEST(ServeTest, GracefulStopDrainsInFlightRequests) {
  Gate gate;
  ServerOptions options;
  options.port = 0;
  options.jobs = 1;
  options.poll_interval_ms = 20;
  Server server(options);
  server.route("GET", "/block", [&gate](const util::HttpRequest&) {
    gate.mark_entered();
    gate.wait_open();
    util::HttpResponse response;
    response.body = "drained\n";
    return response;
  });
  const int port = server.start();
  std::thread serve_thread([&server] { server.serve_forever(); });

  LoopbackClient client(port);
  client.send_raw(LoopbackClient::format_request("GET", "/block"));
  gate.wait_entered(1);

  // Stop while the request is in flight: the response must still arrive,
  // and serve_forever must not return before the worker finished it.
  server.request_stop();
  gate.open();
  const ClientResponse response = client.read_response();
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "drained\n");
  serve_thread.join();
  EXPECT_EQ(server.stats().requests.load(), 1u);
}

TEST(ServeTest, MetricsExposeRequestCountersAndLatencies) {
  AppServer server;
  LoopbackClient client(server.port());
  client.request("GET", "/healthz");
  client.request("GET", "/healthz");
  client.request("POST", "/v1/roofline", kRooflineBody);
  client.request("POST", "/v1/sweep", kSweepBody);
  client.request("POST", "/v1/sweep", kSweepBody);

  const ClientResponse metrics = client.request("GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  const std::string& text = metrics.body;
  EXPECT_NE(text.find("serve_requests_healthz 2\n"), std::string::npos);
  EXPECT_NE(text.find("serve_requests_roofline 1\n"), std::string::npos);
  EXPECT_NE(text.find("serve_requests_sweep 2\n"), std::string::npos);
  EXPECT_NE(text.find("serve_responses_2xx 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_latency_seconds_roofline histogram"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_roofline_count 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_connections_accepted"), std::string::npos);
  // Endpoints that were never hit export an empty histogram, like their
  // request counters.
  EXPECT_NE(text.find("serve_requests_import 0\n"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_import_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_import_count 0\n"),
            std::string::npos);
}

TEST(ServeTest, MetricsStayExactUnderConcurrentScrapes) {
  // Requests record straight into the registry's instruments while
  // another connection scrapes /metrics in a loop; nothing is lost or
  // counted twice.
  AppServer server;
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<bool> sending{true};
  std::thread scraper([&server, &sending] {
    LoopbackClient client(server.port());
    do {
      EXPECT_EQ(client.request("GET", "/metrics").status, 200);
    } while (sending.load());
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&server] {
      LoopbackClient client(server.port());
      for (int i = 0; i < kPerClient; ++i)
        EXPECT_EQ(client.request("POST", "/v1/roofline", kRooflineBody).status,
                  200);
    });
  }
  for (std::thread& client : clients) client.join();
  sending.store(false);
  scraper.join();

  LoopbackClient client(server.port());
  const std::string text = client.request("GET", "/metrics").body;
  const std::string total = std::to_string(kClients * kPerClient);
  EXPECT_NE(text.find("\nserve_requests_roofline " + total + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nserve_latency_seconds_roofline_count " + total +
                      "\n"),
            std::string::npos);
  // Every earlier scrape has been counted, all as 2xx.
  const std::size_t scrapes_at = text.find("\nserve_requests_metrics ");
  ASSERT_NE(scrapes_at, std::string::npos);
  const long scrapes = std::stol(text.substr(scrapes_at + 24));
  EXPECT_GE(scrapes, 1);
  EXPECT_NE(text.find("\nserve_responses_2xx " +
                      std::to_string(kClients * kPerClient + scrapes) + "\n"),
            std::string::npos)
      << text;
}

TEST(ServeTest, MetricsDoubleScrapeDoesNotDoubleCountSweepTotals) {
  AppServer server;
  LoopbackClient client(server.port());
  ASSERT_EQ(client.request("POST", "/v1/sweep", kSweepBody).status, 200);
  ASSERT_EQ(client.request("POST", "/v1/sweep", kSweepBody).status, 200);
  // Regression: counters used to be re-added on every scrape, so a second
  // scrape doubled the totals.  App increments the registry's endpoint
  // counters once per request, and a scrape only reads them, so they stay
  // exact however often /metrics runs.
  client.request("GET", "/metrics");
  const std::string text = client.request("GET", "/metrics").body;
  // A scrape counts itself only after it returns: two sweeps and the
  // first scrape.
  EXPECT_NE(text.find("serve_requests_sweep 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_requests_metrics 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_responses_2xx 3\n"), std::string::npos) << text;

  // New work adds only its own requests on top of the running totals.
  ASSERT_EQ(client.request("POST", "/v1/sweep", kSweepBody).status, 200);
  const std::string after = client.request("GET", "/metrics").body;
  EXPECT_NE(after.find("serve_requests_sweep 3\n"), std::string::npos)
      << after;
  EXPECT_NE(after.find("serve_responses_2xx 5\n"), std::string::npos)
      << after;
}

TEST(ServeTest, SweepNdjsonMatchesJsonRows) {
  // The streamed NDJSON body and the buffered JSON "points" rows carry
  // the same lines in the same order.
  AppServer server;
  LoopbackClient client(server.port());
  const std::string json_body = R"({
    "system": "perlmutter-gpu",
    "workflow": {"name": "unit", "total_tasks": 600, "parallel_tasks": 120,
                 "flops_per_node": 1.0e15, "fs_bytes_per_task": 2.0e11},
    "params": {"nodes_per_task": [1, 2], "efficiency": [1, 0.8]}
  })";
  const ClientResponse ndjson =
      client.request("POST", "/v1/sweep", kSweepBody);
  ASSERT_EQ(ndjson.status, 200);
  const ClientResponse json =
      client.request("POST", "/v1/sweep", json_body);
  ASSERT_EQ(json.status, 200);

  std::string rebuilt;
  const util::Json doc = util::Json::parse(json.body);
  for (const util::Json& row : doc.at("points").as_array())
    rebuilt += row.dump() + "\n";
  EXPECT_EQ(ndjson.body, rebuilt);
}

// format=json splices the NDJSON rows into "points" as they are.  The
// reference is the body the server used to build, every row parsed and
// the whole object dumped, for an unsharded grid, both halves of a 2-way
// split and a shard that owns no row, under a workflow name that needs
// escaping.
TEST(ServeTest, SweepJsonBodyIsTheDumpOfItsParsedRows) {
  App app(AppOptions{.sweep_jobs = 2});
  const std::string name = "unit \"q\" caf\xc3\xa9 \\ \t";
  const std::string grid =
      R"({"system": "perlmutter-gpu",
          "params": {"nodes_per_task": [1, 2], "efficiency": [1, 0.8]},
          "workflow": {"total_tasks": 600, "parallel_tasks": 120,
                       "flops_per_node": 1.0e15, "fs_bytes_per_task": 2.0e11,
                       "name": )" +
      util::Json(name).dump() + "}";
  // Shard count, index and the rows that shard owns of the 4-point grid.
  for (const auto& [count, index, rows] :
       std::vector<std::tuple<int, int, std::size_t>>{
           {1, 0, 4}, {2, 0, 2}, {2, 1, 2}, {8, 7, 0}}) {
    std::string body = grid;
    if (count > 1)
      body += ",\"shard\":{\"count\":" + std::to_string(count) +
              ",\"index\":" + std::to_string(index) + "}";
    body += "}";
    const util::HttpResponse ndjson =
        app.sweep_from_bytes(body, "format=ndjson");
    const util::HttpResponse json = app.sweep_from_bytes(body, "format=json");
    ASSERT_EQ(ndjson.status, 200) << ndjson.body;
    ASSERT_EQ(json.status, 200) << json.body;

    util::JsonObject expected;
    expected.set("workflow", util::Json(name));
    expected.set("system", util::Json("perlmutter-gpu"));
    if (count > 1) {
      util::JsonObject shard;
      shard.set("count", util::Json(count));
      shard.set("index", util::Json(index));
      expected.set("shard", util::Json(std::move(shard)));
    }
    util::JsonArray points;
    for (const std::string& row : split_lines(ndjson.body))
      points.push_back(util::Json::parse(row));
    EXPECT_EQ(points.size(), rows);
    expected.set("points", util::Json(std::move(points)));
    EXPECT_EQ(json.body, util::Json(std::move(expected)).dump() + "\n");
  }
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++count;
  return count;
}

TEST(ServeTest, SvgEndpointRendersFromQueryParameters) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response = client.request(
      "GET",
      "/v1/svg?system=perlmutter-gpu&total_tasks=600&parallel_tasks=120"
      "&flops_per_node=1e15&title=unit%20svg");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.raw.find("Content-Type: image/svg+xml"),
            std::string::npos);
  EXPECT_NE(response.body.find("<svg"), std::string::npos);
  EXPECT_EQ(count_of(response.body, ">measured</text>"), 0u);

  // With a measurement the model carries exactly one measured dot.
  const ClientResponse measured = client.request(
      "GET",
      "/v1/svg?system=perlmutter-gpu&total_tasks=600&parallel_tasks=120"
      "&flops_per_node=1e15&makespan_seconds=1800");
  ASSERT_EQ(measured.status, 200);
  EXPECT_EQ(count_of(measured.body, ">measured</text>"), 1u);
}

// A /v1/roofline summary is a sweep row: a one-point sweep whose only
// axis repeats the base total_tasks reports the same wall, attainable
// throughput, binding ceiling, slot latency and campaign makespan.
TEST(ServeTest, RooflineSummaryMatchesAOnePointSweepRow) {
  App app(AppOptions{.sweep_jobs = 1});
  const char* workflow = R"({"name": "unit", "total_tasks": 600,
      "parallel_tasks": 120, "flops_per_node": 1.0e15,
      "fs_bytes_per_task": 2.0e11})";
  const util::HttpResponse roofline = app.roofline_from_bytes(
      std::string(R"({"system": "perlmutter-gpu", "workflow": )") + workflow +
      "}");
  ASSERT_EQ(roofline.status, 200) << roofline.body;
  const util::HttpResponse sweep = app.sweep_from_bytes(
      std::string(R"({"system": "perlmutter-gpu", "workflow": )") + workflow +
          R"(, "params": {"total_tasks": [600]}})",
      "format=ndjson");
  ASSERT_EQ(sweep.status, 200) << sweep.body;
  ASSERT_EQ(count_of(sweep.body, "\n"), 1u);

  const util::Json body = util::Json::parse(roofline.body);
  const util::Json row = util::Json::parse(sweep.body);
  EXPECT_EQ(body.at("parallelism_wall").as_number(),
            row.at("wall").as_number());
  EXPECT_EQ(body.at("attainable_tps_at_wall").as_number(),
            row.at("attainable_tps").as_number());
  EXPECT_EQ(body.at("binding").at("label").as_string(),
            row.at("binding").as_string());
  EXPECT_EQ(body.at("binding").at("channel").as_string(),
            row.at("channel").as_string());
  EXPECT_EQ(body.at("slot_seconds").as_number(),
            row.at("slot_seconds").as_number());
  EXPECT_EQ(body.at("campaign_makespan_seconds").as_number(),
            row.at("campaign_makespan_s").as_number());
}

// A non-positive target makespan is a 400, never a silently absent
// target.
TEST(ServeTest, RooflineRejectsNonPositiveTargetMakespan) {
  App app(AppOptions{.sweep_jobs = 1});
  for (const char* target : {"-5", "\"0 s\""}) {
    const util::HttpResponse response = app.roofline_from_bytes(
        std::string(R"({"system": "perlmutter-gpu",
          "workflow": {"name": "unit", "total_tasks": 600,
                       "parallel_tasks": 120, "flops_per_node": 1.0e15},
          "target_makespan": )") +
        target + "}");
    EXPECT_EQ(response.status, 400) << target;
    EXPECT_NE(response.body.find("target_makespan must be finite and > 0"),
              std::string::npos)
        << response.body;
  }
}

TEST(ServeTest, MetricsExposeExactPercentilesPerEndpoint) {
  AppServer server;
  LoopbackClient client(server.port());
  client.request("POST", "/v1/roofline", kRooflineBody);
  client.request("GET", "/healthz");

  const std::string text = client.request("GET", "/metrics").body;
  for (const char* metric :
       {"serve_latency_seconds_roofline_p50 ",
        "serve_latency_seconds_roofline_p95 ",
        "serve_latency_seconds_roofline_p99 ",
        "serve_latency_seconds_roofline_p999 ",
        "serve_latency_seconds_healthz_p50 ",
        "serve_trace_spans_recorded "}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric;
  }
  // The log-bucketed exposition rides along with cumulative le series.
  EXPECT_NE(text.find("serve_latency_seconds_healthz_bucket{le=\""),
            std::string::npos);
}

TEST(ServeTest, TracingPreservesByteIdentityAcrossWorkerCounts) {
  // The /v1 byte-identity contract must hold with tracing enabled AND
  // match a tracing-disabled server byte for byte — the tracer may never
  // feed response bytes (docs/OBSERVABILITY.md).
  std::set<std::string> roofline_bytes;
  std::set<std::string> sweep_bytes;
  for (const bool trace_enabled : {true, false}) {
    for (const int jobs : {1, 2, 8}) {
      ServerOptions options = AppServer::ephemeral();
      options.jobs = jobs;
      AppOptions app_options;
      app_options.trace_enabled = trace_enabled;
      AppServer server(options, app_options);
      LoopbackClient client(server.port());
      roofline_bytes.insert(
          client.request("POST", "/v1/roofline", kRooflineBody).raw);
      sweep_bytes.insert(client.request("POST", "/v1/sweep", kSweepBody).raw);
    }
  }
  EXPECT_EQ(roofline_bytes.size(), 1u);
  EXPECT_EQ(sweep_bytes.size(), 1u);
}

TEST(ServeTest, DebugTraceExportsNestedRequestSpans) {
  AppServer server;
  LoopbackClient client(server.port());
  client.request("POST", "/v1/roofline", kRooflineBody);
  client.request("POST", "/v1/sweep", kSweepBody);

  const ClientResponse response = client.request("GET", "/debug/trace");
  ASSERT_EQ(response.status, 200);
  const util::Json doc = util::Json::parse(response.body);
  const util::Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // Collect the complete ("X") spans keyed by span id, and check every
  // non-root parent exists and contains its child's interval.
  struct Span {
    double ts = 0.0, dur = 0.0;
    std::string name;
  };
  std::map<double, Span> by_id;
  std::vector<std::pair<double, Span>> children;  // (parent, child)
  bool saw_request = false, saw_handle = false, saw_evaluate = false;
  for (const util::Json& event : events.as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    Span span;
    span.ts = event.at("ts").as_number();
    span.dur = event.at("dur").as_number();
    span.name = event.at("name").as_string();
    const util::Json& args = event.at("args");
    by_id.emplace(args.at("span").as_number(), span);
    const double parent = args.at("parent").as_number();
    if (parent != 0) children.emplace_back(parent, span);
    saw_request = saw_request || span.name == "request";
    saw_handle = saw_handle || span.name == "handle";
    saw_evaluate = saw_evaluate || span.name == "evaluate";
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_handle);
  EXPECT_TRUE(saw_evaluate);
  ASSERT_FALSE(children.empty());
  for (const auto& [parent_id, child] : children) {
    const auto it = by_id.find(parent_id);
    ASSERT_NE(it, by_id.end()) << "dangling parent of " << child.name;
    // Microsecond-rounded timestamps: allow 2 us of slack.
    EXPECT_GE(child.ts + 2.0, it->second.ts) << child.name;
    EXPECT_LE(child.ts + child.dur, it->second.ts + it->second.dur + 2.0)
        << child.name;
  }
}

TEST(ServeTest, DebugTraceHonorsLastWindow) {
  AppServer server;
  LoopbackClient client(server.port());
  for (int i = 0; i < 5; ++i) client.request("GET", "/healthz");
  const util::Json doc =
      util::Json::parse(client.request("GET", "/debug/trace?last=1").body);
  std::size_t complete = 0;
  for (const util::Json& event : doc.at("traceEvents").as_array())
    complete += event.at("ph").as_string() == "X";
  EXPECT_EQ(complete, 1u);
}

TEST(ServeTest, DebugTraceRejectsNonIntegerLast) {
  AppServer server;
  LoopbackClient client(server.port());
  for (int i = 0; i < 3; ++i) client.request("GET", "/healthz");
  // Fractions, exponents, negatives and overflow are rejected, not
  // truncated or cast out of range.
  for (const char* last : {"2.5", "1e300", "-1", "abc", "",
                           "99999999999999999999"}) {
    const ClientResponse response =
        client.request("GET", std::string("/debug/trace?last=") + last);
    EXPECT_EQ(response.status, 400) << last;
  }
  // last=0 still means everything retained.
  const util::Json doc =
      util::Json::parse(client.request("GET", "/debug/trace?last=0").body);
  std::size_t complete = 0;
  for (const util::Json& event : doc.at("traceEvents").as_array())
    complete += event.at("ph").as_string() == "X";
  EXPECT_GE(complete, 3u);
}

TEST(ServeTest, DisabledTracerExportsNothingAndServes) {
  ServerOptions options = AppServer::ephemeral();
  AppOptions app_options;
  app_options.trace_enabled = false;
  AppServer server(options, app_options);
  LoopbackClient client(server.port());
  ASSERT_EQ(client.request("POST", "/v1/roofline", kRooflineBody).status,
            200);
  const util::Json doc =
      util::Json::parse(client.request("GET", "/debug/trace").body);
  std::size_t complete = 0;
  for (const util::Json& event : doc.at("traceEvents").as_array())
    complete += event.at("ph").as_string() == "X";
  EXPECT_EQ(complete, 0u);
}

TEST(ServeTest, TracerRingEvictsOldestBeyondCapacity) {
  ServerOptions options = AppServer::ephemeral();
  AppOptions app_options;
  app_options.trace_capacity = 8;
  AppServer server(options, app_options);
  LoopbackClient client(server.port());
  for (int i = 0; i < 10; ++i) client.request("GET", "/healthz");
  const std::string text = client.request("GET", "/metrics").body;
  const auto gauge = [&text](const std::string& name) {
    const std::size_t at = text.find("\n" + name + " ");
    EXPECT_NE(at, std::string::npos) << name;
    return at == std::string::npos
               ? 0.0
               : std::stod(text.substr(at + name.size() + 2));
  };
  const double evicted = gauge("serve_trace_spans_evicted");
  EXPECT_GT(evicted, 0.0);
  EXPECT_GE(gauge("serve_trace_spans_recorded"), evicted + 8);
  const util::Json doc =
      util::Json::parse(client.request("GET", "/debug/trace").body);
  std::size_t complete = 0;
  for (const util::Json& event : doc.at("traceEvents").as_array())
    complete += event.at("ph").as_string() == "X";
  EXPECT_LE(complete, 8u);
}

TEST(ServeTest, AccessLogEmitsOneLinePerRequestAtDebugLevel) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  testing::internal::CaptureStderr();
  {
    AppServer server;
    LoopbackClient client(server.port());
    EXPECT_EQ(client.request("GET", "/healthz").status, 200);
    EXPECT_EQ(client.request("POST", "/v1/roofline", kRooflineBody).status,
              200);
    // Destroying the server drains the workers, so every access line is
    // written before the capture ends.
  }
  const std::string err = testing::internal::GetCapturedStderr();
  util::set_log_level(saved);
  EXPECT_NE(err.find("access trace="), std::string::npos) << err;
  EXPECT_NE(err.find("GET /healthz 200 "), std::string::npos) << err;
  EXPECT_NE(err.find("POST /v1/roofline 200 "), std::string::npos) << err;
}

// A minimal WfCommons wfformat 1.5 instance for the import endpoint.
const char* kWfCommonsBody = R"({
  "name": "tiny-spec",
  "schemaVersion": "1.5",
  "workflow": {
    "specification": {
      "tasks": [
        {"name": "split", "id": "split_1", "parents": [],
         "children": ["work_1"],
         "inputFiles": ["in.dat"], "outputFiles": ["mid.dat"]},
        {"name": "work", "id": "work_1", "parents": ["split_1"],
         "children": [],
         "inputFiles": ["mid.dat"], "outputFiles": ["out.dat"]}
      ],
      "files": [
        {"id": "in.dat", "sizeInBytes": 1048576},
        {"id": "mid.dat", "sizeInBytes": 524288},
        {"id": "out.dat", "sizeInBytes": 262144}
      ]
    },
    "execution": {
      "tasks": [
        {"id": "split_1", "runtimeInSeconds": 2.5, "coreCount": 1},
        {"id": "work_1", "runtimeInSeconds": 7.5, "coreCount": 2}
      ],
      "machines": [
        {"nodeName": "m0", "cpu": {"coreCount": 8, "speedInMHz": 2400}}
      ]
    }
  }
})";

TEST(ServeTest, ImportReturnsTheDagAndCharacterization) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response =
      client.request("POST", "/v1/import", kWfCommonsBody);
  ASSERT_EQ(response.status, 200);
  const util::Json body = util::Json::parse(response.body);
  EXPECT_EQ(body.at("name").as_string(), "tiny-spec");
  EXPECT_EQ(body.at("layout").as_string(), "specification");
  EXPECT_EQ(body.at("tasks").as_int(), 2);
  EXPECT_EQ(body.at("files").as_int(), 3);
  EXPECT_EQ(body.at("dependencies").as_int(), 1);
  EXPECT_TRUE(body.as_object().contains("workflow"));
  EXPECT_TRUE(body.as_object().contains("characterization"));
  // No system supplied: no roofline section.
  EXPECT_FALSE(body.as_object().contains("roofline"));
}

TEST(ServeTest, ImportWithASystemAddsTheRoofline) {
  AppServer server;
  LoopbackClient client(server.port());
  const std::string wrapped =
      std::string(R"({"system": "perlmutter-cpu", "workflow": )") +
      kWfCommonsBody + "}";
  const ClientResponse response =
      client.request("POST", "/v1/import", wrapped);
  ASSERT_EQ(response.status, 200);
  const util::Json body = util::Json::parse(response.body);
  ASSERT_TRUE(body.as_object().contains("roofline"));
  const util::Json& roofline = body.at("roofline");
  EXPECT_TRUE(roofline.as_object().contains("parallelism_wall"));
  EXPECT_TRUE(roofline.as_object().contains("binding"));
  EXPECT_TRUE(roofline.as_object().contains("ceilings"));
}

TEST(ServeTest, ImportResponsesAreByteIdenticalAcrossPosts) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse first =
      client.request("POST", "/v1/import", kWfCommonsBody);
  const ClientResponse second =
      client.request("POST", "/v1/import", kWfCommonsBody);
  ASSERT_EQ(first.status, 200);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(first.body, second.body);
}

TEST(ServeTest, ImportRejectsNonWfcommonsBodies) {
  AppServer server;
  LoopbackClient client(server.port());
  const ClientResponse response =
      client.request("POST", "/v1/import", R"({"hello": "world"})");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("WfCommons"), std::string::npos);
}

TEST(ServeTest, RooflineAcceptsAnInlineWfcommonsWorkflow) {
  AppServer server;
  LoopbackClient client(server.port());
  const std::string body =
      std::string(R"({"system": "perlmutter-cpu", "workflow": )") +
      kWfCommonsBody + "}";
  const ClientResponse response =
      client.request("POST", "/v1/roofline", body);
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"parallelism_wall\""), std::string::npos);
  EXPECT_NE(response.body.find("\"binding\""), std::string::npos);
}

TEST(ServeTest, AccessLogIsSilentAtDefaultLevel) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);  // the startup default
  testing::internal::CaptureStderr();
  {
    AppServer server;
    LoopbackClient client(server.port());
    EXPECT_EQ(client.request("GET", "/healthz").status, 200);
  }
  const std::string err = testing::internal::GetCapturedStderr();
  util::set_log_level(saved);
  EXPECT_EQ(err.find("access trace="), std::string::npos) << err;
}

}  // namespace
}  // namespace wfr::serve
