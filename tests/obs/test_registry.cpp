#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace wfr::obs {
namespace {

// Instruments of every kind, counted from the snapshot.
std::size_t instrument_count(const MetricsRegistry& r) {
  const util::Json s = r.snapshot();
  return s.at("counters").as_object().size() +
         s.at("gauges").as_object().size() +
         s.at("histograms").as_object().size();
}

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  EXPECT_EQ(c.value(), 1u);
  c.increment(2);
  EXPECT_EQ(c.value(), 3u);
  c.increment(0);  // zero delta is allowed
  EXPECT_EQ(c.value(), 3u);
}

TEST(Gauge, HoldsLastWrittenValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(42.0);
  EXPECT_EQ(g.value(), 42.0);
  g.set(-7.0);  // gauges may go down
  EXPECT_EQ(g.value(), -7.0);
}

TEST(Registry, CreatesOnFirstAccessAndReturnsSameInstrument) {
  MetricsRegistry r;
  EXPECT_EQ(instrument_count(r), 0u);
  Counter& a = r.counter("x");
  a.increment(3);
  EXPECT_EQ(&r.counter("x"), &a);
  EXPECT_EQ(r.counter("x").value(), 3u);
  LogHistogram& h = r.histogram("lat");
  h.observe(0.5);
  EXPECT_EQ(&r.histogram("lat"), &h);
  EXPECT_EQ(r.histogram("lat").count(), 1u);
  EXPECT_EQ(instrument_count(r), 2u);
}

TEST(Registry, NameBoundToOneKind) {
  MetricsRegistry r;
  r.counter("n");
  EXPECT_THROW(r.gauge("n"), util::InvalidArgument);
  EXPECT_THROW(r.histogram("n"), util::InvalidArgument);
  r.gauge("g");
  EXPECT_THROW(r.counter("g"), util::InvalidArgument);
  r.histogram("h");
  EXPECT_THROW(r.counter("h"), util::InvalidArgument);
  EXPECT_THROW(r.gauge("h"), util::InvalidArgument);
  EXPECT_EQ(instrument_count(r), 3u);
}

TEST(Registry, FindDoesNotCreate) {
  MetricsRegistry r;
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  r.counter("present").increment();
  ASSERT_NE(r.find_counter("present"), nullptr);
  EXPECT_EQ(r.find_counter("present")->value(), 1u);
  EXPECT_EQ(instrument_count(r), 1u);
}

TEST(Registry, SnapshotIsDeterministicAcrossInsertionOrder) {
  MetricsRegistry first;
  first.counter("a").increment(1);
  first.counter("b").increment(2);
  first.gauge("g").set(3.0);
  first.histogram("h").observe(1.5);
  first.histogram("h").observe(250.0);

  MetricsRegistry second;  // same instruments, reverse creation order
  second.histogram("h").observe(250.0);
  second.histogram("h").observe(1.5);
  second.gauge("g").set(3.0);
  second.counter("b").increment(2);
  second.counter("a").increment(1);

  EXPECT_EQ(first.snapshot().dump(), second.snapshot().dump());
  EXPECT_EQ(first.prometheus_text(), second.prometheus_text());
}

TEST(Registry, SnapshotShape) {
  MetricsRegistry r;
  r.counter("c").increment(4);
  r.gauge("g").set(5.0);
  LogHistogram& h = r.histogram("h");
  h.observe(0.5);
  h.observe(9.0);

  const util::Json snap = r.snapshot();
  EXPECT_EQ(snap.at("counters").at("c").as_int(), 4);
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("g").as_number(), 5.0);
  const util::Json& hist = snap.at("histograms").at("h");
  EXPECT_EQ(hist.dump(), h.snapshot().dump());
  EXPECT_EQ(hist.at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 9.5);
  EXPECT_DOUBLE_EQ(hist.at("min").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(hist.at("max").as_number(), 9.0);
  for (const char* q : {"p50", "p95", "p99", "p999"})
    EXPECT_TRUE(hist.as_object().contains(q)) << q;
  EXPECT_FALSE(hist.as_object().contains("mean"));
  // Only the two non-empty geometric buckets, each bounding its sample
  // within one growth step.
  const util::JsonArray& buckets = hist.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 2u);
  const double samples[] = {0.5, 9.0};
  for (std::size_t i = 0; i < 2; ++i) {
    const double le = buckets[i].at("le").as_number();
    EXPECT_GT(le, samples[i]) << i;
    EXPECT_LE(le, samples[i] * LogHistogram::kGrowth) << i;
    EXPECT_EQ(buckets[i].at("count").as_int(), 1) << i;
  }
}

TEST(Registry, PrometheusTextRendersEachKindWithQuantileGauges) {
  MetricsRegistry r;
  r.counter("serve.requests.sweep").increment(3);
  r.gauge("9lives").set(0.25);
  r.histogram("serve.latency_seconds.sweep").observe(0.002);
  const std::string text = r.prometheus_text();
  EXPECT_NE(text.find("# TYPE serve_requests_sweep counter\n"
                      "serve_requests_sweep 3\n"),
            std::string::npos)
      << text;
  // A leading digit gains a '_' prefix.
  EXPECT_NE(text.find("# TYPE _9lives gauge\n_9lives 0.25\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE serve_latency_seconds_sweep histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_sweep_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_sweep_count 1\n"),
            std::string::npos);
  // A single sample pins every quantile gauge to itself.
  for (const char* suffix : {"_p50", "_p95", "_p99", "_p999"}) {
    const std::string metric = std::string("serve_latency_seconds_sweep") +
                               suffix;
    EXPECT_NE(text.find("# TYPE " + metric + " gauge\n" + metric +
                        " 0.002\n"),
              std::string::npos)
        << metric;
  }
}

TEST(Registry, ConcurrentUpdatesAndScrapesKeepExactTotals) {
  // Writers update pre-resolved instruments without the registry lock
  // while a scraper creates new names and renders both exports.
  MetricsRegistry r;
  Counter& counter = r.counter("hits");
  Gauge& gauge = r.gauge("level");
  LogHistogram& latency = r.histogram("latency");
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> writing{true};
  std::thread scraper([&] {
    int created = 0;
    while (writing.load()) {
      r.counter("scrape.c" + std::to_string(created)).increment();
      r.gauge("scrape.g" + std::to_string(created)).set(created);
      r.histogram("scrape.h" + std::to_string(created)).observe(1e-3);
      ++created;
      EXPECT_FALSE(r.prometheus_text().empty());
      EXPECT_TRUE(r.snapshot().is_object());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter.increment();
        gauge.set(t);
        latency.observe(1e-4 * (1 + i % 100));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  writing.store(false);
  scraper.join();

  constexpr std::uint64_t kTotal = kWriters * kPerWriter;
  EXPECT_EQ(counter.value(), kTotal);
  EXPECT_EQ(latency.count(), kTotal);
  EXPECT_GE(gauge.value(), 0.0);
  EXPECT_LT(gauge.value(), kWriters);
  const util::Json snap = r.snapshot();
  EXPECT_EQ(snap.at("counters").at("hits").as_number(),
            static_cast<double>(kTotal));
  EXPECT_EQ(snap.at("histograms").at("latency").at("count").as_number(),
            static_cast<double>(kTotal));
  const std::string text = r.prometheus_text();
  EXPECT_NE(text.find("\nhits " + std::to_string(kTotal) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nlatency_count " + std::to_string(kTotal) + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace wfr::obs
