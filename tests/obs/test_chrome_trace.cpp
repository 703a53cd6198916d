#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "trace/timeline.hpp"
#include "util/json.hpp"

namespace wfr::obs {
namespace {

trace::WorkflowTrace sample_trace() {
  trace::WorkflowTrace t("unit-wf");
  trace::TaskRecord prep;
  prep.task = 0;
  prep.name = "prep";
  prep.kind = "setup";
  prep.nodes = 1;
  prep.start_seconds = 0.0;
  prep.end_seconds = 10.0;
  prep.spans = {{trace::Phase::kExternalIn, 0.0, 4.0},
                {trace::Phase::kWork, 4.0, 10.0}};
  t.add_record(std::move(prep));

  trace::TaskRecord analyze;
  analyze.task = 1;
  analyze.name = "analyze";
  analyze.kind = "analysis";
  analyze.nodes = 4;
  analyze.start_seconds = 10.0;
  analyze.end_seconds = 30.0;
  analyze.spans = {{trace::Phase::kFsRead, 10.0, 12.0},
                   {trace::Phase::kWork, 12.0, 28.0},
                   {trace::Phase::kFsWrite, 28.0, 30.0}};
  t.add_record(std::move(analyze));
  return t;
}

std::vector<ResourceTimeSeries> sample_resources() {
  ResourceTimeSeries fs("fs", 1e12);
  fs.record(0.0, 4.0, 1, 1, 1e12, 4e12);
  fs.record(10.0, 2.0, 2, 2, 5e11, 2e12);
  fs.record(28.0, 2.0, 1, 1, 1e12, 2e12);
  return {std::move(fs)};
}

int count_phase(const util::Json& doc, const std::string& ph) {
  int n = 0;
  for (const util::Json& e : doc.at("traceEvents").as_array())
    if (e.at("ph").as_string() == ph) ++n;
  return n;
}

TEST(ChromeTrace, RoundTripsThroughDumpAndParse) {
  const util::Json doc = chrome_trace_json(sample_trace(), sample_resources());
  const util::Json reparsed = util::Json::parse(doc.dump());
  EXPECT_EQ(reparsed.at("displayTimeUnit").as_string(), "ms");
  EXPECT_EQ(reparsed.dump(), doc.dump());
  EXPECT_FALSE(reparsed.at("traceEvents").as_array().empty());
}

TEST(ChromeTrace, EventCountsMatchTraceContents) {
  const util::Json doc = chrome_trace_json(sample_trace(), sample_resources());
  // M: workflow process + resource process + one thread per task.
  EXPECT_EQ(count_phase(doc, "M"), 4);
  // X: one task slice per task plus one slice per span (2 + 5).
  EXPECT_EQ(count_phase(doc, "X"), 7);
  // C: two tracks x 3 samples plus two closing zero events.
  EXPECT_EQ(count_phase(doc, "C"), 8);
}

TEST(ChromeTrace, EventsAreMonotonicallyOrdered) {
  const util::Json doc = chrome_trace_json(sample_trace(), sample_resources());
  double last_ts = -1e300;
  bool seen_timestamped = false;
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (!e.as_object().contains("ts")) {
      // Metadata carries no timestamp and must precede all timed events.
      EXPECT_FALSE(seen_timestamped);
      continue;
    }
    seen_timestamped = true;
    const double ts = e.at("ts").as_number();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
  EXPECT_TRUE(seen_timestamped);
}

TEST(ChromeTrace, TimestampsAreMicroseconds) {
  const util::Json doc = chrome_trace_json(sample_trace(), {});
  bool found = false;
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X" || e.at("name").as_string() != "analyze")
      continue;
    found = true;
    EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 10.0 * 1e6);
    EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 20.0 * 1e6);
    EXPECT_EQ(e.at("tid").as_int(), 2);  // task id 1 -> lane 2
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTrace, CounterTracksLiveInResourceProcess) {
  const util::Json doc = chrome_trace_json(sample_trace(), sample_resources());
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "C") continue;
    EXPECT_EQ(e.at("pid").as_int(), 2);
    const std::string name = e.at("name").as_string();
    EXPECT_TRUE(name == "fs flows" || name == "fs bandwidth") << name;
  }
}

// A series of `samples` one-second samples, each with a distinct flow
// count so none coalesce.
ResourceTimeSeries series_of(int samples) {
  ResourceTimeSeries fs("fs", 1e12);
  for (int i = 0; i < samples; ++i)
    fs.record(static_cast<double>(i), 1.0, i + 1, 1, 1e9, 1e9);
  return fs;
}

TEST(ChromeTrace, LongSeriesAreDecimatedKeepingEndpoints) {
  // Up to 8192 samples per track are kept as they are: 2 events each
  // plus 2 closing events.
  const util::Json full =
      chrome_trace_json(trace::WorkflowTrace("wf"), {series_of(8192)});
  EXPECT_EQ(count_phase(full, "C"), 2 * 8192 + 2);
  // 10000 samples: stride ceil(10000/8192)=2 keeps the 5000 even samples
  // and the last one, 9999 -> 5001x2 events + 2 closing.
  const util::Json doc =
      chrome_trace_json(trace::WorkflowTrace("wf"), {series_of(10000)});
  EXPECT_EQ(count_phase(doc, "C"), 5001 * 2 + 2);
  // The last sample survives and the closing zero event sits at the
  // series end.
  bool last_kept = false;
  double max_ts = 0.0;
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "C") continue;
    const double ts = e.at("ts").as_number();
    last_kept = last_kept || ts == 9999.0 * 1e6;
    max_ts = std::max(max_ts, ts);
  }
  EXPECT_TRUE(last_kept);
  EXPECT_DOUBLE_EQ(max_ts, 10000.0 * 1e6);
}

TEST(ChromeTrace, WriteProducesParsableFile) {
  const std::string path = "chrome_trace_test_out.json";
  write_chrome_trace(path, sample_trace(), sample_resources());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::Json doc = util::Json::parse(buffer.str());
  EXPECT_FALSE(doc.at("traceEvents").as_array().empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wfr::obs
