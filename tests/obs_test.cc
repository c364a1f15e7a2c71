// The observability substrate (src/obs): the metrics registry, the
// structured tracer with its Chrome trace_event export, and the threading
// of both through core::FlowRunner, serve::ServeLoop, storage (HSM +
// media migration), and net (transfer scheduler).
//
// The headline tests use determinism as the oracle: a same-seed run must
// export a byte-identical trace JSON (fingerprinted with MD5, like
// WorkloadGen::Fingerprint), and the registry counters must agree exactly
// with each subsystem's own accounting. The `stress` portion hammers one
// registry and one tracer from >= 8 threads and is meant to run under
// ASan/TSan.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/flow_graph.h"
#include "core/flow_runner.h"
#include "core/stage.h"
#include "core/web_service.h"
#include "db/buffer_pool.h"
#include "db/page_store.h"
#include "net/network_link.h"
#include "net/transfer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/response_cache.h"
#include "serve/serve_loop.h"
#include "serve/workload_gen.h"
#include "sim/simulation.h"
#include "storage/disk.h"
#include "storage/hsm.h"
#include "storage/migration.h"
#include "storage/tape.h"

namespace dflow {
namespace {

constexpr int64_t kGB = 1000LL * 1000 * 1000;

using core::DataProduct;
using core::FlowGraph;
using core::FlowRunner;
using core::LambdaStage;
using core::RetryPolicy;
using core::StageCosts;

std::shared_ptr<LambdaStage> PassThrough(const std::string& name,
                                         double seconds_per_product = 0.0) {
  return std::make_shared<LambdaStage>(
      name, StageCosts{seconds_per_product, 0.0},
      [](const DataProduct& in) -> Result<std::vector<DataProduct>> {
        return std::vector<DataProduct>{in};
      });
}

DataProduct Product(const std::string& name, int64_t bytes) {
  DataProduct product;
  product.name = name;
  product.bytes = bytes;
  return product;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("flow.stage.errors");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter, registry.GetCounter("flow.stage.errors"));  // Stable.
  counter->Add(3);
  counter->Increment();
  EXPECT_EQ(registry.CounterValue("flow.stage.errors"), 4);
  EXPECT_EQ(registry.CounterValue("never.registered"), 0);

  auto checked = registry.CheckedCounterValue("flow.stage.errors");
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(*checked, 4);
  EXPECT_TRUE(registry.CheckedCounterValue("typo").status().IsNotFound());

  obs::Gauge* gauge = registry.GetGauge("queue.depth");
  gauge->Set(7.0);
  gauge->Add(1.5);
  EXPECT_DOUBLE_EQ(gauge->Value(), 8.5);

  obs::StripedHistogram* histogram = registry.GetHistogram("latency", 4);
  histogram->Record(0.001);
  histogram->Record(0.010);
  EXPECT_EQ(histogram->Snapshot().count(), 2);
}

TEST(MetricsRegistryTest, SnapshotJsonIsDeterministicAndSorted) {
  auto populate = [](obs::MetricsRegistry& registry) {
    registry.GetCounter("b.second")->Add(2);
    registry.GetCounter("a.first")->Add(1);
    registry.GetGauge("z.gauge")->Set(0.25);
    registry.GetHistogram("m.hist")->Record(0.003);
  };
  obs::MetricsRegistry one;
  obs::MetricsRegistry two;
  populate(one);
  populate(two);
  std::string json = one.SnapshotJson();
  EXPECT_EQ(json, two.SnapshotJson());  // Byte-identical.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.first\":1"), std::string::npos);
  // Sorted: "a.first" before "b.second".
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsHandles) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  counter->Add(5);
  registry.GetHistogram("h")->Record(1.0);
  registry.Reset();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(registry.GetHistogram("h")->Snapshot().count(), 0);
  counter->Add(1);  // Handle still live.
  EXPECT_EQ(registry.CounterValue("c"), 1);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, LogicalClockReplaysByteIdentically) {
  auto record = [](obs::Tracer& tracer) {
    int64_t t0 = tracer.NowUs();
    tracer.CompleteEvent("work", "test", t0, 5, {{"k", "v"}});
    tracer.InstantEvent("tick", "test");
    obs::SpanGuard span(&tracer, "guarded", "test");
    span.AddArg("outcome", "ok");
  };
  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer one(config);
  obs::Tracer two(config);
  record(one);
  record(two);
  EXPECT_EQ(one.ExportChromeJson(), two.ExportChromeJson());
  EXPECT_EQ(one.Fingerprint(), two.Fingerprint());

  obs::Tracer three(config);
  record(three);
  three.InstantEvent("extra", "test");
  EXPECT_NE(one.Fingerprint(), three.Fingerprint());
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  tracer.SetEnabled(false);
  EXPECT_FALSE(tracer.enabled());
  tracer.CompleteEvent("x", "test", 0, 1);
  tracer.InstantEvent("y", "test");
  { obs::SpanGuard span(&tracer, "z", "test"); }
  EXPECT_EQ(tracer.event_count(), 0u);
  // Null tracer is a supported no-op for SpanGuard.
  { obs::SpanGuard span(nullptr, "w", "test"); }
}

TEST(TracerTest, MaxEventsCapCountsDropped) {
  obs::TracerConfig config;
  config.max_events = 3;
  obs::Tracer tracer(config);
  for (int i = 0; i < 10; ++i) {
    tracer.InstantEvent("e", "test");
  }
  EXPECT_EQ(tracer.event_count(), 3u);
  EXPECT_EQ(tracer.dropped(), 7);
}

TEST(TracerTest, ExportIsValidTraceEventShape) {
  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer tracer(config);
  tracer.CompleteEvent("span", "cat", 10, 4, {{"file", "a\"b"}});
  tracer.InstantEvent("mark", "cat");
  std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4"), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);  // Escaped quote.
}

// ---------------------------------------------------------------------------
// FlowRunner: golden traces + counter cross-checks

/// One faulted Fig-1-style run: src -> work with transient errors, a
/// jittered retry policy (jitter draws from the runner's seed, so the
/// trace timing depends on it), and the tracer bound to the simulation
/// clock. Returns the Chrome JSON export.
std::string RunFlowTrace(uint64_t seed, std::string* metrics_json = nullptr) {
  sim::Simulation simulation;
  FlowGraph graph;
  EXPECT_TRUE(graph.AddStage(PassThrough("src", 0.5)).ok());
  EXPECT_TRUE(graph.AddStage(PassThrough("work", 1.0)).ok());
  EXPECT_TRUE(graph.Connect("src", "work").ok());

  FlowRunner runner(&simulation, &graph, seed);
  obs::MetricsRegistry registry;
  EXPECT_TRUE(runner.SetMetricsRegistry(&registry).ok());

  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kExternal;
  config.external_now_sec = [&simulation] { return simulation.Now(); };
  obs::Tracer tracer(config);
  EXPECT_TRUE(runner.SetTracer(&tracer).ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_sec = 10.0;
  policy.jitter_fraction = 0.5;  // Seed-dependent timing.
  EXPECT_TRUE(runner.SetRetryPolicy("work", policy).ok());
  EXPECT_TRUE(runner.InjectTransientErrors("work", 2).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(runner
                    .Inject("src", Product("p" + std::to_string(i), kGB),
                            static_cast<double>(i))
                    .ok());
  }
  EXPECT_TRUE(runner.Run().ok());
  if (metrics_json != nullptr) {
    *metrics_json = registry.SnapshotJson();
  }
  return tracer.ExportChromeJson();
}

TEST(FlowRunnerObsTest, SameSeedExportsByteIdenticalTrace) {
  std::string metrics_a;
  std::string metrics_b;
  std::string trace_a = RunFlowTrace(20060206, &metrics_a);
  std::string trace_b = RunFlowTrace(20060206, &metrics_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_NE(trace_a.find("retry_scheduled"), std::string::npos);
  EXPECT_NE(trace_a.find("\"cat\":\"flow\""), std::string::npos);
}

TEST(FlowRunnerObsTest, DifferentSeedsExportDifferentTraces) {
  // The retry jitter is the only seed consumer; the traces must diverge
  // in the backoff instants' timestamps.
  EXPECT_NE(RunFlowTrace(1), RunFlowTrace(2));
}

TEST(FlowRunnerObsTest, CountersCrossCheckReportColumns) {
  sim::Simulation simulation;
  FlowGraph graph;
  ASSERT_TRUE(graph.AddStage(PassThrough("work")).ok());
  FlowRunner runner(&simulation, &graph);
  obs::MetricsRegistry registry;
  ASSERT_TRUE(runner.SetMetricsRegistry(&registry).ok());

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_initial_sec = 1.0;
  ASSERT_TRUE(runner.SetRetryPolicy("work", policy).ok());
  // 3 injected failures over 5 products. Failures are consumed per
  // serviced ATTEMPT, so one unlucky product burns two of them (first try
  // + its retry) and dead-letters under max_attempts=2; one more fails
  // once and survives its retry: errors=3, retries=2, dead=1.
  ASSERT_TRUE(runner.InjectTransientErrors("work", 3).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(runner
                    .Inject("work", Product("p" + std::to_string(i), 10),
                            static_cast<double>(i))
                    .ok());
  }
  ASSERT_TRUE(runner.Run().ok());

  const core::StageMetrics& metrics = runner.MetricsFor("work");
  EXPECT_EQ(metrics.errors, 3);
  EXPECT_EQ(metrics.retries, 2);
  EXPECT_EQ(metrics.dead_lettered, 1);
  EXPECT_EQ(metrics.products_in, 5);
  EXPECT_EQ(metrics.products_out, 4);

  // The registry is the single source of truth: its counters must agree
  // exactly with the accessor struct and the Report() columns.
  EXPECT_EQ(registry.CounterValue("flow.work.errors"), metrics.errors);
  EXPECT_EQ(registry.CounterValue("flow.work.retries"), metrics.retries);
  EXPECT_EQ(registry.CounterValue("flow.work.dead_lettered"),
            metrics.dead_lettered);
  EXPECT_EQ(registry.CounterValue("flow.work.products_in"),
            metrics.products_in);
  EXPECT_EQ(registry.CounterValue("flow.work.bytes_out"), metrics.bytes_out);
  EXPECT_EQ(runner.total_errors(), 3);
  EXPECT_EQ(runner.total_retries(), 2);
  EXPECT_EQ(runner.dead_letters().size(), 1u);

  std::string report = runner.Report();
  EXPECT_NE(report.find("work"), std::string::npos);
  // err / retry / dead columns carry the same numbers.
  EXPECT_NE(report.find("3"), std::string::npos);
}

TEST(FlowRunnerObsTest, DeadLettersMatchCounter) {
  sim::Simulation simulation;
  FlowGraph graph;
  ASSERT_TRUE(graph.AddStage(PassThrough("frail")).ok());
  FlowRunner runner(&simulation, &graph);
  // Fail-fast default policy: every injected error dead-letters.
  ASSERT_TRUE(runner.InjectTransientErrors("frail", 2).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        runner.Inject("frail", Product("p" + std::to_string(i), 1), 0.0)
            .ok());
  }
  ASSERT_TRUE(runner.Run().ok());
  EXPECT_EQ(runner.dead_letters().size(), 2u);
  EXPECT_EQ(runner.metrics_registry()->CounterValue(
                "flow.frail.dead_lettered"),
            2);
}

TEST(FlowRunnerObsTest, SetMetricsRegistryAndTracerPreconditions) {
  sim::Simulation simulation;
  FlowGraph graph;
  ASSERT_TRUE(graph.AddStage(PassThrough("a")).ok());
  FlowRunner runner(&simulation, &graph);
  obs::MetricsRegistry registry;
  EXPECT_TRUE(runner.SetMetricsRegistry(nullptr).IsInvalidArgument());
  ASSERT_TRUE(runner.SetWorkers("a", 2).ok());  // Creates stage state.
  EXPECT_TRUE(runner.SetMetricsRegistry(&registry).IsFailedPrecondition());
  ASSERT_TRUE(runner.Run().ok());
  obs::Tracer tracer;
  EXPECT_TRUE(runner.SetTracer(&tracer).IsFailedPrecondition());
}

TEST(FlowRunnerObsTest, CheckedUtilizationOfDistinguishesTypoFromIdle) {
  sim::Simulation simulation;
  FlowGraph graph;
  ASSERT_TRUE(graph.AddStage(PassThrough("busy", 1.0)).ok());
  ASSERT_TRUE(graph.AddStage(PassThrough("idle", 1.0)).ok());
  FlowRunner runner(&simulation, &graph);
  ASSERT_TRUE(runner.Inject("busy", Product("p", 1), 0.0).ok());
  ASSERT_TRUE(runner.Run().ok());

  auto busy = runner.CheckedUtilizationOf("busy");
  ASSERT_TRUE(busy.ok());
  EXPECT_DOUBLE_EQ(*busy, runner.UtilizationOf("busy"));
  EXPECT_GT(*busy, 0.0);

  auto idle = runner.CheckedUtilizationOf("idle");
  ASSERT_TRUE(idle.ok());  // Known stage that never ran: 0, not an error.
  EXPECT_DOUBLE_EQ(*idle, 0.0);

  EXPECT_TRUE(runner.CheckedUtilizationOf("ghost").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// ServeLoop: golden traces on the logical clock + registry mirrors

class EchoService : public core::WebService {
 public:
  Result<core::ServiceResponse> Handle(
      const core::ServiceRequest& request) override {
    core::ServiceResponse response;
    response.body = "echo:" + request.Param("x", request.path);
    return response;
  }
  std::vector<std::string> Endpoints() const override { return {"echo"}; }
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "echo";
};

std::vector<core::ServiceRequest> EchoPopulation(int n) {
  std::vector<core::ServiceRequest> population;
  for (int i = 0; i < n; ++i) {
    core::ServiceRequest request;
    request.path = "svc/echo";
    request.params["x"] = "q" + std::to_string(i);
    population.push_back(std::move(request));
  }
  return population;
}

/// A serialized dissemination run on the logical clock: one worker,
/// blocking Execute() calls, so event order (and thread-track assignment)
/// is deterministic and the exported trace is a golden artifact of the
/// request stream.
std::string RunServeTrace(uint64_t seed, std::string* metrics_json = nullptr) {
  core::ServiceRegistry registry;
  EXPECT_TRUE(registry.Mount("svc", std::make_shared<EchoService>()).ok());
  serve::ShardedResponseCache cache(serve::CacheConfig{4, 1 << 20, 0.0});

  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer tracer(trace_config);
  obs::MetricsRegistry metrics;

  serve::ServeConfig config;
  config.num_workers = 1;
  config.tracer = &tracer;
  config.metrics = &metrics;
  serve::ServeLoop loop(&registry, config, &cache);

  serve::WorkloadGen gen(EchoPopulation(8), /*zipf_s=*/1.1, seed);
  for (int i = 0; i < 64; ++i) {
    auto result = loop.Execute(gen.Next());
    EXPECT_TRUE(result.ok());
  }
  loop.Drain();
  if (metrics_json != nullptr) {
    // Counters only: the latency histogram measures WALL time per request
    // and is legitimately run-dependent; the counters (and the trace, on
    // the logical clock) are the deterministic artifacts.
    metrics_json->clear();
    for (const std::string& name : metrics.CounterNames()) {
      *metrics_json += name + "=" +
                       std::to_string(metrics.CounterValue(name)) + ";";
    }
  }
  return tracer.ExportChromeJson();
}

TEST(ServeLoopObsTest, SameSeedExportsByteIdenticalTrace) {
  std::string metrics_a;
  std::string metrics_b;
  std::string trace_a = RunServeTrace(7, &metrics_a);
  std::string trace_b = RunServeTrace(7, &metrics_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
  EXPECT_NE(trace_a.find("cache_lookup"), std::string::npos);
  EXPECT_NE(trace_a.find("queue_wait"), std::string::npos);
  EXPECT_NE(trace_a.find("backend"), std::string::npos);
}

TEST(ServeLoopObsTest, DifferentSeedsExportDifferentTraces) {
  EXPECT_NE(RunServeTrace(7), RunServeTrace(8));
}

TEST(ServeLoopObsTest, RegistryCountsMatchWorkloadAndCacheTotals) {
  core::ServiceRegistry registry;
  ASSERT_TRUE(registry.Mount("svc", std::make_shared<EchoService>()).ok());
  serve::ShardedResponseCache cache(serve::CacheConfig{2, 1 << 20, 0.0});
  obs::MetricsRegistry metrics;
  serve::ServeConfig config;
  config.num_workers = 2;
  config.metrics = &metrics;
  serve::ServeLoop loop(&registry, config, &cache);

  core::ServiceRequest request;
  request.path = "svc/echo";
  request.params["x"] = "hot";
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(loop.Execute(request).ok());  // 1 miss, then 9 hits.
  }
  loop.Drain();

  // The registry holds exactly what the workload implies: ten requests
  // for one key, all admitted and completed, one miss then nine hits.
  EXPECT_EQ(metrics.CounterValue("serve.offered"), 10);
  EXPECT_EQ(metrics.CounterValue("serve.admitted"), 10);
  EXPECT_EQ(metrics.CounterValue("serve.completed"), 10);
  EXPECT_EQ(metrics.CounterValue("serve.errors"), 0);
  EXPECT_EQ(metrics.CounterValue("serve.shed"), 0);
  EXPECT_EQ(metrics.CounterValue("serve.cache_hits"), 9);
  EXPECT_EQ(metrics.CounterValue("serve.cache_misses"), 1);
  // Stats() is a view over the same counters.
  serve::ServeStats stats = loop.Stats();
  EXPECT_EQ(stats.offered, 10);
  EXPECT_EQ(stats.cache_hits, 9);
  // The cache counts on its own, so its totals are an independent check.
  serve::CacheStats totals = cache.Totals();
  EXPECT_EQ(metrics.CounterValue("serve.cache_hits"), totals.hits);
  EXPECT_EQ(metrics.CounterValue("serve.cache_misses"), totals.misses);
  // One latency sample per completed request.
  EXPECT_EQ(metrics.GetHistogram("serve.latency_sec")->Snapshot().count(),
            10);
  EXPECT_EQ(loop.Latencies().count(), 10);
}

// ---------------------------------------------------------------------------
// Storage: HSM + migration observability

TEST(StorageObsTest, HsmCountersAndSpans) {
  sim::Simulation simulation;
  storage::DiskVolume disk("cache", 100 * kGB, 400.0e6, 0.005);
  storage::TapeLibrary tape(&simulation, "tape", storage::TapeLibraryConfig{});
  storage::HsmCache hsm(&simulation, &disk, &tape);

  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&simulation] { return simulation.Now(); };
  obs::Tracer tracer(trace_config);
  hsm.SetObserver(&tracer, &metrics);

  bool archived = false;
  ASSERT_TRUE(hsm.Put("run1", 10 * kGB, [&] { archived = true; }).ok());
  simulation.Run();
  ASSERT_TRUE(archived);

  // Hit: one cache_read span.
  ASSERT_TRUE(hsm.Get("run1", [](int64_t) {}).ok());
  simulation.Run();
  // Miss with one bad block: recall span covering a fault, a repair, and
  // the re-read.
  hsm.Evict("run1");
  tape.MarkBadBlock("run1");
  int64_t recalled = 0;
  ASSERT_TRUE(hsm.Get("run1", [&](int64_t n) { recalled = n; }).ok());
  simulation.Run();
  EXPECT_EQ(recalled, 10 * kGB);

  // One hit, one explicit eviction, one miss whose recall hit one bad
  // block that one operator repair cleared.
  EXPECT_EQ(metrics.CounterValue("hsm.cache_hits"), 1);
  EXPECT_EQ(metrics.CounterValue("hsm.cache_misses"), 1);
  EXPECT_EQ(metrics.CounterValue("hsm.evictions"), 1);
  EXPECT_EQ(metrics.CounterValue("hsm.read_faults"), 1);
  EXPECT_EQ(metrics.CounterValue("hsm.operator_repairs"), 1);
  EXPECT_EQ(metrics.CounterValue("hsm.read_failures"), 0);
  EXPECT_EQ(hsm.hits(), 1);
  EXPECT_EQ(hsm.read_faults(), 1);

  std::string trace = tracer.ExportChromeJson();
  EXPECT_NE(trace.find("hsm.archive_put"), std::string::npos);
  EXPECT_NE(trace.find("hsm.cache_read"), std::string::npos);
  EXPECT_NE(trace.find("hsm.recall"), std::string::npos);
  EXPECT_NE(trace.find("hsm.operator_repair"), std::string::npos);
}

TEST(StorageObsTest, MigrationCountersAndSpans) {
  sim::Simulation simulation;
  storage::TapeLibrary source(&simulation, "old",
                              storage::TapeLibraryConfig{});
  storage::TapeLibrary destination(&simulation, "new",
                                   storage::TapeLibraryConfig{});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        source.Write("f" + std::to_string(i), kGB, nullptr).ok());
  }
  simulation.Run();
  source.MarkBadBlock("f1");  // One file needs an operator repair.

  storage::MigrationConfig config;
  config.parallel_streams = 2;
  storage::MediaMigration migration(&simulation, &source, &destination,
                                    config);
  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&simulation] { return simulation.Now(); };
  obs::Tracer tracer(trace_config);
  migration.SetObserver(&tracer, &metrics);

  bool done = false;
  ASSERT_TRUE(
      migration.Run([&](const storage::MigrationReport&) { done = true; })
          .ok());
  simulation.Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(migration.Verify().ok());

  const storage::MigrationReport& report = migration.report();
  EXPECT_EQ(report.files_migrated, 3);
  EXPECT_EQ(report.files_lost, 0);
  EXPECT_EQ(report.bad_block_repairs, 1);
  // Three files, one bad block: one repair, one retry, nothing lost.
  EXPECT_EQ(metrics.CounterValue("migration.files_migrated"), 3);
  EXPECT_EQ(metrics.CounterValue("migration.files_lost"), 0);
  EXPECT_EQ(metrics.CounterValue("migration.retries"), 1);
  EXPECT_EQ(metrics.CounterValue("migration.bad_block_repairs"), 1);

  std::string trace = tracer.ExportChromeJson();
  EXPECT_NE(trace.find("migrate_file"), std::string::npos);
  EXPECT_NE(trace.find("bad_block_repair"), std::string::npos);
  EXPECT_NE(trace.find("\"outcome\":\"migrated\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Injection order: a component counts into a private registry until one is
// injected, so a registry injected after the first count would silently
// strand the counts made before it. That is a check failure, not a
// quietly wrong view.

TEST(ObsDeathTest, RegistryInjectedAfterFirstCountIsFatal) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  obs::MetricsRegistry metrics;
  EXPECT_DEATH(
      {
        db::BufferPool pool(db::BufferPoolOptions{},
                            std::make_unique<db::MemPageStore>());
        (void)pool.Allocate();  // db.pool.allocations = 1.
        pool.SetMetricsRegistry(&metrics);
      },
      "must precede the first counted event");
  EXPECT_DEATH(
      {
        sim::Simulation simulation;
        storage::DiskVolume disk("cache", 100 * kGB, 400.0e6, 0.005);
        storage::TapeLibrary tape(&simulation, "tape",
                                  storage::TapeLibraryConfig{});
        storage::HsmCache hsm(&simulation, &disk, &tape);
        (void)hsm.Put("run1", kGB, [] {});
        simulation.Run();
        hsm.Evict("run1");  // hsm.evictions = 1.
        hsm.SetObserver(nullptr, &metrics);
      },
      "before the first count");

  // Attaching before any count is fine, and the counts land in `metrics`.
  db::BufferPool pool(db::BufferPoolOptions{},
                      std::make_unique<db::MemPageStore>());
  pool.SetMetricsRegistry(&metrics);
  ASSERT_TRUE(pool.Allocate().ok());
  EXPECT_EQ(metrics.CounterValue("db.pool.allocations"), 1);
  EXPECT_EQ(pool.stats().allocations, 1);
}

// ---------------------------------------------------------------------------
// Net: transfer spans + retransmit instants

TEST(NetObsTest, TransferSpansAndCounters) {
  sim::Simulation simulation;
  net::NetworkLink link(&simulation, "link", net::NetworkLinkConfig{});
  link.InjectCorruptNext(1);  // First file arrives bit-flipped once.
  net::TransferScheduler scheduler(&simulation, &link, /*max_retries=*/3);

  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&simulation] { return simulation.Now(); };
  obs::Tracer tracer(trace_config);
  scheduler.SetObserver(&tracer, &metrics);

  std::vector<net::TransferItem> items;
  items.push_back(net::MakePayloadItem("a.arc", "payload-a", 10 * kGB));
  items.push_back(net::MakePayloadItem("b.arc", "payload-b", 10 * kGB));
  bool delivered = false;
  ASSERT_TRUE(scheduler.SendAll(items, [&] { delivered = true; }).ok());
  simulation.Run();
  ASSERT_TRUE(delivered);
  EXPECT_TRUE(scheduler.AllDelivered());

  // One corrupted arrival, one retransmit, both files delivered.
  EXPECT_EQ(scheduler.retries(), 1);
  EXPECT_EQ(metrics.CounterValue("net.transfer.retries"), 1);
  EXPECT_EQ(metrics.CounterValue("net.transfer.failures"), 0);
  EXPECT_EQ(metrics.CounterValue("net.transfer.delivered"), 2);

  std::string trace = tracer.ExportChromeJson();
  EXPECT_NE(trace.find("net.transfer"), std::string::npos);
  EXPECT_NE(trace.find("net.retransmit"), std::string::npos);
  EXPECT_NE(trace.find("\"outcome\":\"delivered\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stress: one registry + one tracer shared by >= 8 threads (ASan/TSan).

TEST(ObsStressTest, ConcurrentRegistryAndTracerAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  obs::MetricsRegistry registry;
  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kLogical;
  config.max_events = static_cast<size_t>(kThreads) * kIters * 2;
  obs::Tracer tracer(config);

  std::atomic<bool> stop{false};
  // A reader thread snapshots concurrently with the writers.
  std::thread reader([&] {
    while (!stop.load()) {
      std::string json = registry.SnapshotJson();
      EXPECT_FALSE(json.empty());
      std::string trace = tracer.ExportChromeJson();
      EXPECT_FALSE(trace.empty());
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Half the names are shared across all threads, half are private:
      // both the contended and uncontended paths get exercised.
      obs::Counter* shared = registry.GetCounter("stress.shared");
      obs::Counter* mine =
          registry.GetCounter("stress.t" + std::to_string(t));
      obs::StripedHistogram* histogram =
          registry.GetHistogram("stress.latency", 8);
      for (int i = 0; i < kIters; ++i) {
        shared->Add(1);
        mine->Add(1);
        histogram->Record(1e-4 * (1 + (i % 7)));
        int64_t now = tracer.NowUs();
        tracer.CompleteEvent("op", "stress", now, 1);
        if (i % 16 == 0) {
          tracer.InstantEvent("mark", "stress");
        }
      }
    });
  }
  for (std::thread& thread : writers) {
    thread.join();
  }
  stop.store(true);
  reader.join();

  EXPECT_EQ(registry.CounterValue("stress.shared"),
            static_cast<int64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.CounterValue("stress.t" + std::to_string(t)), kIters);
  }
  EXPECT_EQ(registry.GetHistogram("stress.latency")->Snapshot().count(),
            static_cast<int64_t>(kThreads) * kIters);
  size_t expected_events = static_cast<size_t>(kThreads) * kIters  // "op"
                           + static_cast<size_t>(kThreads) * (kIters / 16);
  EXPECT_EQ(tracer.event_count() + static_cast<size_t>(tracer.dropped()),
            expected_events);
  EXPECT_EQ(tracer.dropped(), 0);
  // The export parses out to one line per event plus the two wrapper
  // lines; just sanity-check it is well formed at the ends.
  std::string trace = tracer.ExportChromeJson();
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace.rfind("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
}

TEST(ObsStressTest, ConcurrentEnableToggleIsSafe) {
  obs::TracerConfig config;
  config.clock = obs::TracerConfig::ClockMode::kLogical;
  obs::Tracer tracer(config);
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      tracer.SetEnabled(false);
      tracer.SetEnabled(true);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (tracer.enabled()) {
          tracer.InstantEvent("e", "stress");
        }
      }
    });
  }
  for (std::thread& thread : writers) {
    thread.join();
  }
  stop.store(true);
  toggler.join();
  EXPECT_LE(tracer.event_count(), 8u * 2000u);
}

}  // namespace
}  // namespace dflow
