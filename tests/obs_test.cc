#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/server/stream_server.h"

namespace datatriage::obs {
namespace {

TEST(CounterTest, AddsAndDefaultsToOne) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(GaugeTest, TracksHighWatermark) {
  Gauge gauge;
  gauge.Set(5.0);
  gauge.Set(2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 5.0);
  gauge.Add(4.0);  // 2 + 4 = 6: new watermark
  EXPECT_DOUBLE_EQ(gauge.value(), 6.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 6.0);
}

TEST(HistogramTest, RoutesObservationsIncludingOverflow) {
  Histogram histogram({1.0, 3.0});
  histogram.Observe(0.25);
  histogram.Observe(1.0);  // boundary: v <= bound lands in that bucket
  histogram.Observe(2.0);
  histogram.Observe(100.0);  // overflow
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_DOUBLE_EQ(histogram.sum(), 103.25);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.25);
  EXPECT_DOUBLE_EQ(histogram.max(), 100.0);
  EXPECT_EQ(histogram.bucket_counts(),
            (std::vector<int64_t>{2, 1, 1}));
}

TEST(HistogramTest, EmptyHistogramReportsZeroMinMax) {
  Histogram histogram({1.0});
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
}

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("a.count");
  counter->Add(3);
  // Registering many more names must not invalidate the first pointer.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("a.count"), counter);
  EXPECT_EQ(counter->value(), 3);
  EXPECT_EQ(registry.GetHistogram("h", {1.0, 2.0}),
            registry.GetHistogram("h", {1.0, 2.0}));
}

TEST(MetricsRegistryTest, SnapshotsAreKeyedByName) {
  MetricsRegistry registry;
  registry.GetCounter("b")->Add(2);
  registry.GetCounter("a")->Add(1);
  registry.GetGauge("depth")->Set(9.0);
  registry.GetGauge("depth")->Set(4.0);
  const auto totals = registry.CounterTotals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals.at("a"), 1);
  EXPECT_EQ(totals.at("b"), 2);
  const auto maxima = registry.GaugeMaxima();
  EXPECT_DOUBLE_EQ(maxima.at("depth"), 9.0);
}

TEST(WindowTraceRecorderTest, FullRingDiscardsOldestButKeepsTotals) {
  WindowTraceRecorder recorder;
  const int64_t total = static_cast<int64_t>(kWindowTraceCapacity) + 2;
  for (int64_t w = 0; w < total; ++w) {
    WindowTraceRecord record;
    record.window = w;
    recorder.Record(std::move(record));
  }
  EXPECT_EQ(recorder.total_recorded(), total);
  ASSERT_EQ(recorder.records().size(), kWindowTraceCapacity);
  EXPECT_EQ(recorder.records().front().window, 2);
  EXPECT_EQ(recorder.records().back().window, total - 1);
}

TEST(WindowTraceRecorderTest, SessionTraceStaysCappedAcrossSnapshot) {
  // One event per one-second window: the session emits more windows
  // than the trace keeps, and is snapshotted once its ring is full.
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterStream({"R", Schema({{"a", FieldType::kInt64}})})
          .ok());
  const std::string sql =
      "SELECT a, COUNT(*) as n FROM R GROUP BY a; WINDOW R['1 second'];";
  const size_t windows = kWindowTraceCapacity + 100;
  std::vector<engine::StreamEvent> events;
  for (size_t w = 0; w < windows; ++w) {
    events.push_back(
        {"r", Tuple({Value::Int64(static_cast<int64_t>(w % 3))},
                    static_cast<double>(w) + 0.5)});
  }
  const std::span<const engine::StreamEvent> feed(events);
  const size_t cut = windows - 50;

  server::StreamServer donor(catalog);
  auto id = donor.RegisterQuery(sql, engine::EngineConfig{});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(donor.PushBatch(feed.subspan(0, cut)).ok());
  const WindowTraceRecorder& donor_trace = donor.session(*id).trace();
  ASSERT_EQ(donor_trace.records().size(), kWindowTraceCapacity);
  ASSERT_GT(donor_trace.total_recorded(),
            static_cast<int64_t>(kWindowTraceCapacity));
  auto snapshot = donor.SnapshotSession(*id);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(donor.PushBatch(feed.subspan(cut)).ok());
  ASSERT_TRUE(donor.Finish().ok());

  EXPECT_EQ(donor_trace.total_recorded(), static_cast<int64_t>(windows));
  ASSERT_EQ(donor_trace.records().size(), kWindowTraceCapacity);
  EXPECT_EQ(donor_trace.records().front().window,
            static_cast<WindowId>(windows - kWindowTraceCapacity));
  EXPECT_EQ(donor_trace.records().back().window,
            static_cast<WindowId>(windows - 1));

  server::StreamServer target(catalog);
  auto restored = target.RestoreSession(*snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE(target.PushBatch(feed.subspan(cut)).ok());
  ASSERT_TRUE(target.Finish().ok());
  const server::QuerySession& restored_session = target.session(*restored);
  EXPECT_EQ(restored_session.trace().total_recorded(),
            donor_trace.total_recorded());
  EXPECT_EQ(MetricsJson(restored_session.metrics(),
                        &restored_session.trace()),
            MetricsJson(donor.session(*id).metrics(), &donor_trace));
}

TEST(MetricsJsonTest, EmptyRegistryWithoutTrace) {
  MetricsRegistry registry;
  EXPECT_EQ(MetricsJson(registry, nullptr),
            "{\n"
            "  \"schema_version\": 1,\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

// Golden test for the exporter: the exact document for a small registry
// + trace. This is the schema contract of DESIGN.md Sec. 9.3 — update
// the golden string AND bump schema_version if the layout ever changes.
TEST(MetricsJsonTest, GoldenDocument) {
  MetricsRegistry registry;
  registry.GetCounter("engine.tuples_dropped")->Add(7);
  registry.GetCounter("stream.r.dropped.force_shed")->Add(3);
  Gauge* depth = registry.GetGauge("stream.r.queue_depth");
  depth->Set(5.0);
  depth->Set(2.0);
  Histogram* latency =
      registry.GetHistogram("engine.emission_latency_seconds", {1.0, 3.0});
  latency->Observe(0.25);
  latency->Observe(0.5);
  latency->Observe(2.0);

  WindowTraceRecorder trace;
  WindowTraceRecord record;
  record.window = 2;
  record.deadline = 1.5;
  record.emit_time = 1.75;
  record.latency = 0.25;
  record.kept_tuples = 10;
  record.dropped_tuples = 4;
  record.force_shed_by_stream = {{"r", 3}, {"s", 1}};
  record.exact_rows = 2;
  record.merged_rows = 3;
  record.exact_work_units = 100;
  record.shadow_work_units = 40;
  trace.Record(std::move(record));

  EXPECT_EQ(
      MetricsJson(registry, &trace),
      "{\n"
      "  \"schema_version\": 1,\n"
      "  \"counters\": {\n"
      "    \"engine.tuples_dropped\": 7,\n"
      "    \"stream.r.dropped.force_shed\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"stream.r.queue_depth\": {\"value\": 2, \"max\": 5}\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"engine.emission_latency_seconds\": {\"count\": 3, "
      "\"sum\": 2.75, \"min\": 0.25, \"max\": 2, \"buckets\": "
      "[{\"le\": 1, \"count\": 2}, {\"le\": 3, \"count\": 1}, "
      "{\"le\": \"+inf\", \"count\": 0}]}\n"
      "  },\n"
      "  \"windows\": [\n"
      "    {\"window\": 2, \"deadline\": 1.5, \"emit_time\": 1.75, "
      "\"latency\": 0.25, \"kept\": 10, \"dropped\": 4, "
      "\"force_shed\": {\"r\": 3, \"s\": 1}, \"exact_rows\": 2, "
      "\"merged_rows\": 3, \"exact_work_units\": 100, "
      "\"shadow_work_units\": 40}\n"
      "  ]\n"
      "}\n");
}

TEST(MetricsJsonTest, EscapesHostileStreamNames) {
  MetricsRegistry registry;
  registry.GetCounter("stream.\"quoted\"\n.dropped")->Add(1);
  const std::string json = MetricsJson(registry, nullptr);
  EXPECT_NE(json.find("\"stream.\\\"quoted\\\"\\n.dropped\": 1"),
            std::string::npos);
}

TEST(WriteMetricsJsonTest, RoundTripsThroughFile) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(5);
  const std::string path =
      ::testing::TempDir() + "/obs_test_metrics.json";
  ASSERT_TRUE(WriteMetricsJson(registry, nullptr, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  EXPECT_EQ(contents, MetricsJson(registry, nullptr));
}

TEST(WriteMetricsJsonTest, UnwritablePathReturnsError) {
  MetricsRegistry registry;
  EXPECT_FALSE(
      WriteMetricsJson(registry, nullptr, "/no/such/dir/metrics.json")
          .ok());
}

}  // namespace
}  // namespace datatriage::obs
