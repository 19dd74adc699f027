// Observability plane: metrics registry, span store, ambient trace context,
// and the fabric/admin integration points.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <set>

#include "admin/admin_console.h"
#include "gridview/gridview.h"
#include "kernel_fixture.h"
#include "net/fabric.h"
#include "obs/span_store.h"
#include "obs/trace_context.h"

namespace phoenix::obs {
namespace {

// --- metrics primitives ----------------------------------------------------

TEST(HistogramTest, CountSumMaxMean) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(90);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 120u);
  EXPECT_EQ(h.max(), 90u);
  EXPECT_DOUBLE_EQ(h.mean(), 40.0);
}

TEST(HistogramTest, PercentilesTrackLogBuckets) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty
  // 100 identical values: every percentile lands in the value's bucket
  // [64, 128), clipped above by max+1.
  for (int i = 0; i < 100; ++i) h.record(100);
  EXPECT_GE(h.percentile(0.5), 64.0);
  EXPECT_LE(h.percentile(0.5), 101.0);
  EXPECT_GE(h.percentile(0.99), 64.0);
  EXPECT_LE(h.percentile(0.99), 101.0);
  // A two-mode distribution: p50 stays in the low mode, p99 in the high one.
  Histogram h2;
  for (int i = 0; i < 98; ++i) h2.record(100);
  for (int i = 0; i < 2; ++i) h2.record(1'000'000);
  EXPECT_LT(h2.percentile(0.5), 128.0);
  EXPECT_GT(h2.percentile(0.99), 500'000.0);
  EXPECT_EQ(h2.max(), 1'000'000u);
}

TEST(HistogramTest, ZeroAndHugeValues) {
  Histogram h;
  h.record(0);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
  EXPECT_LE(h.percentile(0.01), 1.0);  // the 0 lands in bucket 0
}

TEST(RegistryTest, FindOrCreateReturnsStablePointers) {
  Registry r;
  Counter* c = r.counter("a.count");
  c->inc(3);
  EXPECT_EQ(r.counter("a.count"), c);  // same object
  EXPECT_EQ(r.counter("a.count")->value(), 3u);
  EXPECT_EQ(r.find_counter("a.count"), c);
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  EXPECT_EQ(r.find_gauge("missing"), nullptr);
  EXPECT_EQ(r.find_histogram("missing"), nullptr);
}

TEST(RegistryTest, SnapshotRunsProbesAndRendersJson) {
  Registry r;
  r.counter("events.total")->inc(7);
  r.histogram("lat.us")->record(100);
  const std::uint64_t id = r.register_probe(
      [](Registry& reg) { reg.gauge("pull.value")->set(42.5); });
  const std::string json = r.snapshot_json();
  EXPECT_NE(json.find("\"events.total\": 7"), std::string::npos);
  EXPECT_NE(json.find("pull.value"), std::string::npos);
  EXPECT_NE(json.find("42.5"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  r.unregister_probe(id);
  EXPECT_EQ(r.probe_count(), 0u);
}

TEST(RegistryTest, ResetValuesKeepsNamesAndProbes) {
  Registry r;
  Counter* c = r.counter("x");
  c->inc(5);
  r.histogram("h")->record(9);
  r.register_probe([](Registry&) {});
  r.reset_values();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(r.find_histogram("h")->count(), 0u);
  EXPECT_EQ(r.probe_count(), 1u);
}

// --- span store ------------------------------------------------------------

Span make_span(std::uint64_t trace, std::uint64_t id, std::uint64_t parent,
               sim::SimTime start, sim::SimTime end) {
  return Span{trace, id, parent, start, end, "test", "unit", "ok"};
}

TEST(SpanStoreTest, DisabledRecordsNothing) {
  SpanStore s;
  s.record(make_span(1, 2, 0, 0, 5));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.recorded_total(), 0u);
}

TEST(SpanStoreTest, CapacityEvictsOldestFirst) {
  SpanStore s;
  s.set_enabled(true);
  s.set_capacity(3);
  for (std::uint64_t i = 1; i <= 5; ++i) s.record(make_span(1, i, 0, i, i + 1));
  ASSERT_EQ(s.size(), 3u);
  const auto spans = s.spans();
  EXPECT_EQ(spans.front().span_id, 3u);  // 1 and 2 evicted
  EXPECT_EQ(spans.back().span_id, 5u);
  EXPECT_EQ(s.recorded_total(), 5u);
}

TEST(SpanStoreTest, MintIdsAreUnique) {
  SpanStore s;
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) ids.insert(s.mint_id());
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(SpanStoreTest, ChromeJsonShape) {
  SpanStore s;
  s.set_enabled(true);
  s.record(Span{7, 8, 0, 10, 25, "fabric", "hop:test.msg", "delivered"});
  const std::string json = s.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":15"), std::string::npos);
  EXPECT_NE(json.find("hop:test.msg"), std::string::npos);
  EXPECT_NE(json.find("delivered"), std::string::npos);
}

// --- ambient context -------------------------------------------------------

TEST(ContextScopeTest, NestsAndRestores) {
  EXPECT_FALSE(current_context().active());
  {
    ContextScope outer(TraceContext{1, 10}, 100);
    EXPECT_EQ(current_context().trace_id, 1u);
    EXPECT_EQ(current_delivery_sent_at(), 100u);
    {
      ContextScope inner(TraceContext{2, 20});
      EXPECT_EQ(current_context().trace_id, 2u);
      EXPECT_EQ(current_context().parent_span_id, 20u);
      EXPECT_EQ(current_delivery_sent_at(), 0u);  // not a delivery frame
    }
    EXPECT_EQ(current_context().trace_id, 1u);
    EXPECT_EQ(current_delivery_sent_at(), 100u);
  }
  EXPECT_FALSE(current_context().active());
}

// --- fabric integration ----------------------------------------------------

struct ObsPingMsg final : net::Message {
  PHOENIX_MESSAGE_TYPE("obs.ping")
  std::size_t wire_size() const noexcept override { return 32; }
};

TEST(FabricObsTest, DeliveredCountAndStatsMerge) {
  sim::Engine eng(1);
  net::Fabric fabric(eng, 4, 2);
  std::size_t handled = 0;
  fabric.set_delivery_handler([&](const net::Envelope&) { ++handled; });
  const auto msg = std::make_shared<ObsPingMsg>();
  fabric.send({net::NodeId{0}, net::PortId{1}}, {net::NodeId{1}, net::PortId{1}},
              net::NetworkId{0}, msg);
  fabric.send({net::NodeId{2}, net::PortId{1}}, {net::NodeId{3}, net::PortId{1}},
              net::NetworkId{1}, msg);
  eng.run();
  EXPECT_EQ(handled, 2u);
  EXPECT_EQ(fabric.stats(net::NetworkId{0}).messages_delivered, 1u);
  EXPECT_EQ(fabric.stats(net::NetworkId{1}).messages_delivered, 1u);
  const net::NetworkStats total = fabric.total_stats();
  EXPECT_EQ(total.messages_sent, 2u);
  EXPECT_EQ(total.messages_delivered, 2u);

  net::NetworkStats a, b;
  a.messages_sent = 3;
  a.messages_delivered = 2;
  a.messages_lost = 1;
  b.messages_sent = 4;
  b.messages_delivered = 4;
  b.bytes_sent = 100;
  a.add(b);
  EXPECT_EQ(a.messages_sent, 7u);
  EXPECT_EQ(a.messages_delivered, 6u);
  EXPECT_EQ(a.messages_lost, 1u);
  EXPECT_EQ(a.bytes_sent, 100u);
}

TEST(FabricObsTest, TracedSendRecordsHopAndPropagatesContext) {
  sim::Engine eng(1);
  net::Fabric fabric(eng, 2, 1);
  SpanStore spans;
  spans.set_enabled(true);
  fabric.set_span_store(&spans);

  TraceContext seen;
  sim::SimTime seen_sent_at = 0;
  fabric.set_delivery_handler([&](const net::Envelope&) {
    seen = current_context();
    seen_sent_at = current_delivery_sent_at();
  });

  const std::uint64_t trace = spans.mint_id();
  const std::uint64_t parent = spans.mint_id();
  {
    ContextScope scope(TraceContext{trace, parent});
    fabric.send({net::NodeId{0}, net::PortId{1}},
                {net::NodeId{1}, net::PortId{1}}, net::NetworkId{0},
                std::make_shared<ObsPingMsg>());
  }
  eng.run();

  ASSERT_EQ(spans.size(), 1u);
  const Span hop = spans.spans().front();
  EXPECT_EQ(hop.trace_id, trace);
  EXPECT_EQ(hop.parent_span_id, parent);
  EXPECT_EQ(hop.name, "hop:obs.ping");
  EXPECT_EQ(hop.outcome, "delivered");
  EXPECT_GT(hop.end, hop.start);
  // The delivery handler ran under the hop's context, with the wire time.
  EXPECT_EQ(seen.trace_id, trace);
  EXPECT_EQ(seen.parent_span_id, hop.span_id);
  EXPECT_EQ(seen_sent_at, hop.start);
}

TEST(FabricObsTest, DisabledStoreLeavesUntracedPathAlone) {
  sim::Engine eng(1);
  net::Fabric fabric(eng, 2, 1);
  SpanStore spans;  // never enabled
  fabric.set_span_store(&spans);
  std::size_t handled = 0;
  fabric.set_delivery_handler([&](const net::Envelope&) { ++handled; });
  fabric.send({net::NodeId{0}, net::PortId{1}}, {net::NodeId{1}, net::PortId{1}},
              net::NetworkId{0}, std::make_shared<ObsPingMsg>());
  eng.run();
  EXPECT_EQ(handled, 1u);
  EXPECT_EQ(spans.size(), 0u);
}

// --- cluster / admin integration -------------------------------------------

TEST(ClusterObsTest, RegistryDisabledByDefaultAndProbesPreRegistered) {
  phoenix::testing::KernelHarness h(phoenix::testing::small_cluster_spec());
  EXPECT_FALSE(h.cluster.metrics().enabled());
  EXPECT_FALSE(h.cluster.span_store().enabled());
  // Fabric/engine probes are registered at construction; enabling at any
  // point is all a diagnostic run needs.
  EXPECT_GT(h.cluster.metrics().probe_count(), 0u);
  h.cluster.metrics().set_enabled(true);
  h.run_s(2.0);
  const std::string json = h.cluster.metrics().snapshot_json();
  EXPECT_NE(json.find("fabric.messages_sent"), std::string::npos);
  EXPECT_NE(json.find("engine.events_executed"), std::string::npos);
}

TEST(ClusterObsTest, MetricsStayZeroCostWhenDisabled) {
  phoenix::testing::KernelHarness h(phoenix::testing::small_cluster_spec(),
                                    phoenix::testing::fast_ft_params());
  h.run_s(5.0);
  // Detectors sampled (member counters advance) but the registry-owned
  // counters were never bumped: the plane is off.
  const Counter* samples = h.cluster.metrics().find_counter("detector.samples");
  ASSERT_NE(samples, nullptr);  // created at construction, written never
  EXPECT_EQ(samples->value(), 0u);
  EXPECT_EQ(h.cluster.span_store().size(), 0u);
}

TEST(ClusterObsTest, DetectorCountersAdvanceWhenEnabled) {
  phoenix::testing::KernelHarness h(phoenix::testing::small_cluster_spec(),
                                    phoenix::testing::fast_ft_params());
  h.cluster.metrics().set_enabled(true);
  h.run_s(5.0);
  EXPECT_GT(h.cluster.metrics().find_counter("detector.samples")->value(), 0u);
  EXPECT_GT(h.cluster.metrics().find_counter("detector.full_reports")->value(),
            0u);
}

TEST(AdminObsTest, MetricsReportReturnsRegistrySnapshot) {
  phoenix::testing::KernelHarness h(phoenix::testing::small_cluster_spec(),
                                    phoenix::testing::fast_ft_params());
  h.cluster.metrics().set_enabled(true);
  h.run_s(3.0);
  admin::AdminConsole console(
      h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0], h.kernel);
  const std::string report = console.metrics_report();
  EXPECT_NE(report.find("\"counters\""), std::string::npos);
  EXPECT_NE(report.find("\"gauges\""), std::string::npos);
  EXPECT_NE(report.find("fabric.messages_sent"), std::string::npos);
  // The fabric has genuinely carried kernel traffic by now.
  const Gauge* sent = h.cluster.metrics().find_gauge("fabric.messages_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_GT(sent->value(), 0.0);
}

TEST(GridViewObsTest, RefreshLatencyHistogramRecords) {
  phoenix::testing::KernelHarness h(phoenix::testing::small_cluster_spec(),
                                    phoenix::testing::fast_ft_params());
  h.cluster.metrics().set_enabled(true);
  h.run_s(2.0);
  gridview::GridView view(h.cluster,
                          h.cluster.compute_nodes(net::PartitionId{0})[1],
                          h.kernel, 1 * sim::kSecond);
  view.start();
  h.run_s(5.0);
  const Histogram* lat =
      h.cluster.metrics().find_histogram("gridview.refresh_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->count(), 0u);
  EXPECT_GT(lat->percentile(0.5), 0.0);
}

}  // namespace
}  // namespace phoenix::obs
