// serve_mixed: an in-process serve::Server + serve::App (2 workers, 1 event
// loop) driven in a closed loop by one client thread over 4 keep-alive
// connections.  The seeded mix is ~90% POST /v1/roofline over a pool of
// distinct bodies drawn with repeats, ~8% POST /v1/sweep?format=ndjson over
// a few small grids, and ~2% POST /v1/import of the WfCommons instances.
// Every response must be 200 and byte-identical to the first response to
// the same body.
//
// Traced run: after a stretch of the same traffic, the server's own
// request spans are scraped from GET /debug/trace (stage durations of the
// /v1/roofline requests) and the memo-cache counters from GET /metrics;
// then the same request sequence is replayed without sockets through
// HttpParser, Json::parse, App::handle_* and serialize_response, each call
// timed here.  Client latency minus the server stages is the named
// residual serve.span.unaccounted_ns.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/app.hpp"
#include "serve/loopback_client.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"
#include "util/http.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace wfr;
using util::Json;
using util::JsonObject;

constexpr int kConnections = 4;
constexpr std::size_t kRooflineBodies = 256;
constexpr std::size_t kSweepGrids = 4;
constexpr std::size_t kSequence = 1 << 16;

enum Kind { kRoofline = 0, kSweep = 1, kImport = 2 };
constexpr const char* kKindNames[] = {"roofline", "sweep", "import"};

struct Body {
  Kind kind = kRoofline;
  std::string target;
  std::string body;
  std::string wire;  // the full request bytes
};

struct Traffic {
  std::vector<Body> bodies;
  std::vector<std::uint32_t> sequence;  // body index per request
};

Json roofline_body(Rng& rng, std::size_t k) {
  static const char* kPresets[] = {"perlmutter-gpu", "perlmutter-cpu",
                                   "cori-haswell"};
  const int total = 100 + static_cast<int>(rng.below(5000));
  JsonObject wf;
  wf.set("name", Json("wf-" + std::to_string(k)));
  wf.set("total_tasks", Json(total));
  // At most 200 parallel tasks at up to 4 nodes each stays inside every
  // preset's parallelism wall, where the measured dot must lie.
  wf.set("parallel_tasks",
         Json(1 + static_cast<int>(rng.below(std::min(total, 200)))));
  wf.set("nodes_per_task", Json(1 + static_cast<int>(rng.below(4))));
  wf.set("flops_per_node", Json(rng.log_uniform(1e13, 1e16)));
  wf.set("dram_bytes_per_node", Json(rng.log_uniform(1e11, 1e13)));
  wf.set("fs_bytes_per_task", Json(rng.log_uniform(1e9, 1e12)));
  wf.set("makespan_seconds", Json(rng.uniform(600.0, 7200.0)));
  JsonObject body;
  body.set("system", Json(kPresets[rng.below(3)]));
  body.set("workflow", Json(std::move(wf)));
  return Json(std::move(body));
}

/// 6 x 5 x 8 = 240 points.
Json sweep_body(Rng& rng, std::size_t g) {
  JsonObject wf;
  wf.set("name", Json("grid-" + std::to_string(g)));
  wf.set("total_tasks", Json(1000 + static_cast<int>(rng.below(4000))));
  wf.set("parallel_tasks", Json(64 + static_cast<int>(rng.below(512))));
  wf.set("flops_per_node", Json(rng.log_uniform(1e14, 1e16)));
  wf.set("fs_bytes_per_task", Json(rng.log_uniform(1e10, 1e12)));
  // Round axis values, as a client would send them; the seed picks them.
  util::JsonArray nodes, efficiency, fs;
  for (int n : {1, 2, 3, 4, 6, 8}) nodes.push_back(Json(n));
  const auto offset = static_cast<double>(rng.below(50));
  for (int k = 0; k < 5; ++k)
    efficiency.push_back(Json((600.0 + offset + 80.0 * k) / 1000.0));
  const auto base = static_cast<double>(1000 + rng.below(2000));
  for (int k = 0; k < 8; ++k) fs.push_back(Json((base + 250.0 * k) * 1e9));
  JsonObject params;
  params.set("nodes_per_task", Json(std::move(nodes)));
  params.set("efficiency", Json(std::move(efficiency)));
  params.set("fs_gbs", Json(std::move(fs)));
  JsonObject body;
  body.set("system", Json("perlmutter-gpu"));
  body.set("workflow", Json(std::move(wf)));
  body.set("params", Json(std::move(params)));
  return Json(std::move(body));
}

Traffic make_traffic(const Args& args) {
  Rng rng(args.seed ^ 0x73657276652d6d78ULL);
  Traffic t;
  const auto add = [&t](Kind kind, std::string target, std::string body) {
    Body b;
    b.kind = kind;
    b.target = std::move(target);
    b.body = std::move(body);
    b.wire = serve::LoopbackClient::format_request("POST", b.target, b.body);
    t.bodies.push_back(std::move(b));
  };
  for (std::size_t k = 0; k < kRooflineBodies; ++k)
    add(kRoofline, "/v1/roofline", roofline_body(rng, k).dump());
  for (std::size_t g = 0; g < kSweepGrids; ++g)
    add(kSweep, "/v1/sweep?format=ndjson", sweep_body(rng, g).dump());

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(args.data_dir))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  util::require(!files.empty(),
                "no WfCommons instances (*.json) in " + args.data_dir);
  const std::size_t first_import = t.bodies.size();
  for (const std::string& file : files) {
    const std::string doc = util::read_file(file);
    add(kImport, "/v1/import", doc);
    add(kImport, "/v1/import",
        "{\"workflow\":" + doc + ",\"system\":\"perlmutter-cpu\"}");
  }
  const std::size_t imports = t.bodies.size() - first_import;

  // The --inject status hook: a body the service must reject (400).
  std::optional<std::uint32_t> bad;
  if (args.inject == "status") {
    bad = static_cast<std::uint32_t>(t.bodies.size());
    add(kRoofline, "/v1/roofline",
        R"({"system":"no-such-system","workflow":{"total_tasks":1,"parallel_tasks":1}})");
  }

  t.sequence.reserve(kSequence);
  for (std::size_t i = 0; i < kSequence; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    std::size_t index;
    if (bad && i % 64 == 63) {
      index = *bad;
    } else if (u < 0.90) {
      index = rng.below(kRooflineBodies);
    } else if (u < 0.98) {
      index = kRooflineBodies + rng.below(kSweepGrids);
    } else {
      index = first_import + rng.below(imports);
    }
    t.sequence.push_back(static_cast<std::uint32_t>(index));
  }
  return t;
}

// ---------------------------------------------------------------------------
// Closed-loop client: one thread, kConnections keep-alive sockets, poll(2).
// ---------------------------------------------------------------------------

struct Conn {
  int fd = -1;
  std::uint32_t body = 0;
  std::uint64_t begin_ns = 0;
  bool busy = false;
  std::string buffer;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw util::Error("socket failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::fcntl(fd, F_SETFL, O_NONBLOCK) != 0) {
    ::close(fd);
    throw util::Error(std::string("connect failed: ") + std::strerror(errno));
  }
  return fd;
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
    } else if (!(n < 0 && errno == EINTR)) {
      throw util::Error(std::string("send failed: ") + std::strerror(errno));
    }
  }
}

/// Reads what is available; returns the size of one complete response at
/// the front of the buffer, or 0.
std::size_t pump_read(Conn& conn) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      conn.buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw util::Error("server closed a keep-alive connection");
  }
  const std::size_t head = conn.buffer.find("\r\n\r\n");
  if (head == std::string::npos) return 0;
  std::size_t length = 0;
  const std::size_t cl = conn.buffer.find("Content-Length:");
  if (cl != std::string::npos && cl < head)
    length = std::strtoull(conn.buffer.c_str() + cl + 15, nullptr, 10);
  const std::size_t total = head + 4 + length;
  return conn.buffer.size() >= total ? total : 0;
}

/// The service under test plus its client connections.  Construction is
/// the workload's set-up; destruction closes the connections and drains
/// the server.
class Rig {
 public:
  Rig() {
    serve::ServerOptions options;
    options.port = 0;
    options.jobs = 2;
    options.io_threads = 1;
    app_ = std::make_unique<serve::App>();
    server_ = std::make_unique<serve::Server>(options);
    app_->bind(*server_);
    port_ = server_->start();
    thread_ = std::thread([this] {
      try {
        server_->serve_forever();
      } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: serve_forever: %s\n", error.what());
      }
    });
    try {
      for (int i = 0; i < kConnections; ++i)
        conns_.push_back(Conn{connect_loopback(port_)});
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Rig() { stop(); }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  serve::App& app() { return *app_; }
  int port() const { return port_; }
  std::vector<Conn>& conns() { return conns_; }

 private:
  void stop() {
    for (Conn& conn : conns_) ::close(conn.fd);
    conns_.clear();
    server_->request_stop();
    thread_.join();
  }

  std::unique_ptr<serve::App> app_;
  std::unique_ptr<serve::Server> server_;
  int port_ = 0;
  std::thread thread_;
  std::vector<Conn> conns_;
};

/// Responses per body: the first one seen is the reference every later
/// response to that body must equal.
struct Expected {
  std::vector<std::optional<util::Hash128>> hash;

  void check(Result& result, const Traffic& t, std::uint32_t body,
             std::string_view raw) {
    result.attempted += 1;
    const int status = raw.size() > 12 ? std::atoi(raw.data() + 9) : 0;
    const util::Hash128 digest = util::hash_bytes(raw);
    if (status != 200) {
      result.fail(util::format("%s body %u answered %d",
                               kKindNames[t.bodies[body].kind], body, status));
    } else if (!hash[body]) {
      hash[body] = digest;
    } else if (*hash[body] != digest) {
      result.fail(util::format("%s body %u: response bytes changed",
                               kKindNames[t.bodies[body].kind], body));
    }
  }
};

struct Samples {
  std::vector<double> cell_rps;
  /// Latency in ms per kind, per one-second cell.
  std::array<std::vector<std::vector<double>>, 3> latency;
  /// Latency in ns of every /v1/roofline request, in completion order.
  std::vector<double> roofline_ns;
};

constexpr double kCellSeconds = 1.0;

/// Drives the closed loop for `seconds`, continuing the request sequence
/// at `cursor`, then lets in-flight requests finish.
void drive(Rig& rig, const Traffic& t, std::size_t& cursor, double seconds,
           Expected& expected, Result& result, Samples& samples) {
  std::vector<Conn>& conns = rig.conns();
  const std::uint64_t start = now_ns();
  const auto cells =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kCellSeconds));
  std::vector<double> completions(cells, 0.0);
  for (auto& kind : samples.latency) kind.assign(cells, {});

  const auto issue = [&](Conn& conn) {
    conn.body = t.sequence[cursor++ % t.sequence.size()];
    conn.begin_ns = now_ns();
    conn.busy = true;
    send_all(conn.fd, t.bodies[conn.body].wire);
  };
  for (Conn& conn : conns) issue(conn);

  std::vector<pollfd> fds(conns.size());
  std::size_t busy = conns.size();
  while (busy > 0) {
    for (std::size_t i = 0; i < conns.size(); ++i)
      fds[i] = pollfd{conns[i].fd, static_cast<short>(conns[i].busy ? POLLIN : 0), 0};
    if (::poll(fds.data(), fds.size(), 5000) < 0 && errno != EINTR)
      throw util::Error("poll failed");
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& conn = conns[i];
      if (!conn.busy || fds[i].revents == 0) continue;
      const std::size_t size = pump_read(conn);
      if (size == 0) continue;
      const std::uint64_t end = now_ns();
      expected.check(result, t, conn.body,
                     std::string_view(conn.buffer).substr(0, size));
      conn.buffer.erase(0, size);
      conn.busy = false;
      --busy;
      if (t.bodies[conn.body].kind == kRoofline)
        samples.roofline_ns.push_back(
            static_cast<double>(end - conn.begin_ns));
      const auto cell = static_cast<std::size_t>(
          static_cast<double>(end - start) * 1e-9 / kCellSeconds);
      if (cell < cells) {
        completions[cell] += 1.0;
        samples.latency[t.bodies[conn.body].kind][cell].push_back(
            static_cast<double>(end - conn.begin_ns) * 1e-6);
      }
      if (static_cast<double>(end - start) * 1e-9 < seconds) {
        issue(conn);
        ++busy;
      }
    }
  }
  for (double c : completions) samples.cell_rps.push_back(c / kCellSeconds);
}

/// Latency percentile over every sample, with its spread over cells.
Metric latency_metric(const std::vector<std::vector<double>>& cells,
                      double q) {
  std::vector<double> all, per_cell;
  for (const auto& cell : cells) {
    all.insert(all.end(), cell.begin(), cell.end());
    if (!cell.empty()) per_cell.push_back(quantile(cell, q));
  }
  Metric m = summarize(per_cell, "ms");
  m.value = quantile(all, q);
  m.n = all.size();
  return m;
}

/// Set-up: server started, connections open, and one request of each kind
/// answered — the first roofline body, the first sweep grid (a cold cache)
/// and the first import instance.
double setup_once(const Traffic& t) {
  const std::uint64_t begin = now_ns();
  Rig rig;
  Conn& conn = rig.conns().front();
  for (std::size_t body : {std::size_t{0}, kRooflineBodies,
                           kRooflineBodies + kSweepGrids}) {
    send_all(conn.fd, t.bodies[body].wire);
    std::size_t size = 0;
    while (size == 0) {
      pollfd p{conn.fd, POLLIN, 0};
      ::poll(&p, 1, 5000);
      size = pump_read(conn);
    }
    conn.buffer.erase(0, size);
  }
  return seconds_since(begin);
}

// ---------------------------------------------------------------------------
// Traced run helpers.
// ---------------------------------------------------------------------------

/// Stage durations (ns) of the /v1/roofline requests in the server's span
/// ring, keyed by stage name.
std::map<std::string, std::vector<double>> roofline_stages(const Json& trace) {
  struct Request {
    bool roofline = false;
    std::map<std::string, double> stages;
  };
  std::map<double, Request> requests;  // by trace id
  for (const Json& event : trace.at("traceEvents").as_array()) {
    if (event.string_or("ph", "") != "X") continue;
    const Json& args = event.at("args");
    Request& request = requests[args.at("trace").as_number()];
    const std::string& name = event.at("name").as_string();
    if (name == "request") {
      request.roofline = args.string_or("path", "") == "/v1/roofline" &&
                         args.string_or("status", "") == "200";
    } else if (args.at("parent").as_number() != 0.0 &&
               event.string_or("cat", "") == "serve") {
      request.stages[name] += event.at("dur").as_number() * 1e3;  // us -> ns
    }
  }
  std::map<std::string, std::vector<double>> stages;
  for (const auto& [id, request] : requests) {
    if (!request.roofline) continue;
    for (const char* stage :
         {"queue_wait", "parse", "handle", "serialize", "write"}) {
      const auto it = request.stages.find(stage);
      if (it != request.stages.end()) stages[stage].push_back(it->second);
    }
  }
  return stages;
}

/// A counter from the Prometheus text of /metrics; 0 when absent.
double prometheus_value(const std::string& text, const std::string& name) {
  for (const std::string& line : util::split(text, '\n')) {
    if (line.rfind(name + " ", 0) == 0)
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
  }
  return 0.0;
}

struct ReplayTimes {
  double seconds = 0.0;
  LayerTimes http_parse, json_parse, serialize;
  std::array<LayerTimes, 3> handle;
};

/// The request path without sockets, over `count` requests of the
/// sequence from `cursor`: parse the wire bytes, parse the JSON body,
/// call the handler, serialize the response.
template <bool kTimed>
ReplayTimes replay(serve::App& app, const Traffic& t, std::size_t cursor,
                   std::size_t count, Expected& expected, Result& result) {
  ReplayTimes out;
  const std::uint64_t begin = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t index = t.sequence[(cursor + i) % t.sequence.size()];
    const Body& body = t.bodies[index];
    const std::uint64_t t0 = kTimed ? now_ns() : 0;
    util::HttpParser parser;
    parser.feed(body.wire);
    util::HttpRequest request;
    const util::HttpParser::Status status = parser.next(&request);
    const std::uint64_t t1 = kTimed ? now_ns() : 0;
    const Json parsed = Json::parse(request.body);
    const std::uint64_t t2 = kTimed ? now_ns() : 0;
    util::HttpResponse response;
    try {
      response = body.kind == kRoofline ? app.handle_roofline(request)
                 : body.kind == kSweep  ? app.handle_sweep(request)
                                        : app.handle_import(request);
    } catch (const std::exception& error) {
      response = util::http_error(400, error.what());
    }
    const std::uint64_t t3 = kTimed ? now_ns() : 0;
    const std::string wire = util::serialize_response(response);
    if constexpr (kTimed) {
      const std::uint64_t t4 = now_ns();
      out.http_parse.add(t1 - t0);
      out.json_parse.add(t2 - t1);
      out.handle[body.kind].add(t3 - t2);
      out.serialize.add(t4 - t3);
    }
    if (status != util::HttpParser::Status::kComplete || !parsed.is_object())
      result.fail("replayed request did not parse");
    expected.check(result, t, index, wire);
  }
  out.seconds = seconds_since(begin);
  return out;
}

}  // namespace

void run_serve_mixed(const Args& args, Result& result) {
  const Traffic traffic = make_traffic(args);
  Expected expected;
  expected.hash.resize(traffic.bodies.size());

  std::vector<double> setup;
  for (int i = 0; i < 15; ++i) setup.push_back(setup_once(traffic));
  result.metrics["setup_s"] = summarize(setup, "s");

  Rig rig;
  std::size_t cursor = 0;
  Samples samples;
  const double traffic_seconds =
      args.trace ? std::max(1.0, args.seconds / 2) : args.seconds;
  drive(rig, traffic, cursor, traffic_seconds, expected, result, samples);

  if (!args.trace) {
    result.metrics["throughput"] = summarize(samples.cell_rps, "1/s");
    result.metrics["roofline_p50_ms"] =
        latency_metric(samples.latency[kRoofline], 0.50);
    result.metrics["roofline_p99_ms"] =
        latency_metric(samples.latency[kRoofline], 0.99);
    result.metrics["sweep_p50_ms"] =
        latency_metric(samples.latency[kSweep], 0.50);
    result.metrics["sweep_p99_ms"] =
        latency_metric(samples.latency[kSweep], 0.99);
    result.metrics["import_p50_ms"] =
        latency_metric(samples.latency[kImport], 0.50);
    return;
  }

  // Server-side stages of the roofline requests still in the span ring.
  serve::LoopbackClient scrape(rig.port());
  const serve::ClientResponse trace =
      scrape.request("GET", "/debug/trace?last=0");
  const serve::ClientResponse metrics = scrape.request("GET", "/metrics");
  util::require(trace.status == 200 && metrics.status == 200,
                "scraping /debug/trace and /metrics failed");
  auto stages = roofline_stages(Json::parse(trace.body));

  // The socketless replay of the same sequence, alternating untimed and
  // timed passes.
  const double timer_ns = timer_overhead_ns();
  std::vector<double> untraced, traced, http_parse, json_parse, serialize;
  std::array<std::vector<double>, 3> handle;
  const std::uint64_t begin = now_ns();
  constexpr std::size_t kPass = 1000;
  while (traced.empty() || seconds_since(begin) < args.seconds / 2) {
    // Alternate which replay runs first, so warm-up favours neither.
    const bool untimed_first = traced.size() % 2 == 1;
    const auto untimed = [&] {
      untraced.push_back(kPass / replay<false>(rig.app(), traffic, cursor,
                                               kPass, expected, result)
                                     .seconds);
    };
    if (untimed_first) untimed();
    const ReplayTimes timed =
        replay<true>(rig.app(), traffic, cursor, kPass, expected, result);
    if (!untimed_first) untimed();
    traced.push_back(kPass / timed.seconds);
    cursor += kPass;
    http_parse.push_back(timed.http_parse.mean_net(timer_ns));
    json_parse.push_back(timed.json_parse.mean_net(timer_ns));
    serialize.push_back(timed.serialize.mean_net(timer_ns));
    for (int k = 0; k < 3; ++k)
      if (timed.handle[k].calls() > 0)
        handle[k].push_back(timed.handle[k].mean_net(timer_ns));
  }

  auto& layers = result.layers;
  layers["util.http_parse_ns"] = summarize(http_parse, "ns");
  layers["util.json_parse_ns"] = summarize(json_parse, "ns");
  layers["util.serialize_response_ns"] = summarize(serialize, "ns");
  for (int k = 0; k < 3; ++k)
    layers[std::string("serve.handle_") + kKindNames[k] + "_ns"] =
        summarize(handle[k], "ns");

  // The ledger of a /v1/roofline request: the server's stages, averaged
  // over the requests still in the span ring, against the client latency
  // of as many of the latest roofline requests.
  std::vector<std::string> rows;
  std::size_t requests = 0;
  for (const char* stage :
       {"queue_wait", "parse", "handle", "serialize", "write"}) {
    const std::vector<double>& values = stages[stage];
    if (values.empty()) result.fail(std::string("no ") + stage + " spans");
    requests = std::max(requests, values.size());
    rows.push_back(std::string("serve.span.") + stage + "_ns");
    layers[rows.back()] = single(mean(values), "ns", values.size());
  }
  const std::vector<double>& client = samples.roofline_ns;
  requests = std::min(requests, client.size());
  layers["bench.item_ns"] = single(
      mean(std::vector<double>(
          client.end() - static_cast<std::ptrdiff_t>(requests), client.end())),
      "ns", requests);
  close_ledger(result, "serve_mixed", rows, "serve.span.unaccounted_ns");

  const double hits = prometheus_value(metrics.body, "sweep_cache_hits");
  const double lookups =
      hits + prometheus_value(metrics.body, "sweep_cache_misses");
  layers["exec.cache_hit_ratio"] =
      single(lookups > 0 ? hits / lookups : 0.0, "ratio",
             static_cast<std::size_t>(lookups));
  layers["exec.cache_lookups"] = single(lookups, "count");
  layers["exec.cache_evictions"] =
      single(prometheus_value(metrics.body, "sweep_cache_evictions"), "count");
  layers["bench.trace_overhead_ratio"] =
      single(median(traced) / median(untraced), "ratio", traced.size());
}

}  // namespace perfbench
