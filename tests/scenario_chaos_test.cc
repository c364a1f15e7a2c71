// Combined-chaos ordering: the cross-product interactions the scenario
// matrix exercises at scale, pinned down here at unit size with exact
// accounting. A seeded fault plan drives link outages and bad blocks INTO
// a running scrub — every detection must either file a ticket or join the
// pending one (deduplicated, never lost, never a double repair), with the
// "scrub.*" registry counts matching what the schedule fixes exactly.
// Separately, a circuit breaker trips and recovers while counting into
// the SAME MetricsRegistry the scrubber used, with the "serve.breaker_*"
// counts derived from the backends' own call counts.
//
// Labeled `stress`: the breaker half runs a threaded ServeLoop and is
// meant to run under ASan/TSan.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/web_service.h"
#include "fault/adapters.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "net/network_link.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/scrubber.h"
#include "serve/serve_loop.h"
#include "sim/simulation.h"
#include "storage/tape.h"

namespace dflow {
namespace {

constexpr int64_t kGB = 1'000'000'000;
constexpr double kHorizonSec = 30'000.0;

std::string FileName(int i) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "f%02d", i);
  return buf;
}

TEST(CombinedChaosTest, LinkOutageMidScrubDeduplicatesTickets) {
  sim::Simulation sim;
  storage::TapeLibrary primary(&sim, "primary", storage::TapeLibraryConfig{});
  storage::TapeLibrary replica(&sim, "replica", storage::TapeLibraryConfig{});
  constexpr int kFiles = 10;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(primary.Write(FileName(i), kGB, nullptr).ok());
    ASSERT_TRUE(replica.Write(FileName(i), kGB, nullptr).ok());
  }
  sim.Run();
  ASSERT_EQ(primary.FileNames().size(), static_cast<size_t>(kFiles));

  // One seeded plan drives every fault stream: link flaps on the ingest
  // path, loud bad blocks on two rotating victims, and drive failures
  // that slow the scrub's own reads.
  fault::FaultPlanConfig plan_config;
  plan_config.horizon_sec = kHorizonSec;
  plan_config.processes = {
      {fault::FaultKind::kLinkFlap, "wan", 4.0 / kHorizonSec, 1200.0, 1},
      {fault::FaultKind::kBadBlock, "primary", 4.0 / kHorizonSec, 0.0, 1},
      {fault::FaultKind::kBadBlock, "primary", 3.0 / kHorizonSec, 0.0, 6},
      {fault::FaultKind::kDriveFailure, "primary", 2.0 / kHorizonSec, 3600.0,
       1},
  };
  auto plan = fault::FaultPlan::Generate(/*seed=*/77, plan_config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // The plan is inspectable: derive the exact expectations from it rather
  // than hard-coding counts the seed happens to produce.
  int64_t planned_flaps = 0;
  int64_t planned_bad_blocks = 0;
  std::set<std::string> expected_victims;
  const std::vector<std::string> sorted_files = primary.FileNames();
  for (const fault::FaultEvent& event : plan->events()) {
    if (event.kind == fault::FaultKind::kLinkFlap) {
      ++planned_flaps;
    } else if (event.kind == fault::FaultKind::kBadBlock) {
      ++planned_bad_blocks;
      expected_victims.insert(
          sorted_files[static_cast<size_t>(event.count) % sorted_files.size()]);
    }
  }
  // The seed must actually produce the collision this test is about.
  ASSERT_GE(planned_flaps, 1);
  ASSERT_GE(planned_bad_blocks, 2);

  fault::Injector injector(&sim, *plan);
  net::NetworkLink wan(&sim, "wan", net::NetworkLinkConfig{});
  fault::ArmNetworkLink(injector, &wan);
  fault::ArmTapeLibrary(injector, &primary, "primary");
  ASSERT_TRUE(injector.Arm().ok());

  // Ingest keeps flowing while everything above misbehaves; deliveries
  // must conserve (delivered + lost == sent) across the outages.
  int64_t sent = 0;
  auto delivered = std::make_shared<int64_t>(0);
  auto lost = std::make_shared<int64_t>(0);
  for (double at = 500.0; at < kHorizonSec; at += 1500.0) {
    ++sent;
    sim.ScheduleAt(at, [&wan, delivered, lost] {
      net::TransferItem item;
      item.name = "ingest";
      item.bytes = 200'000'000;
      ASSERT_TRUE(wan.Send(item, [delivered, lost](const net::TransferItem&,
                                                   net::DeliveryOutcome out) {
                       if (out == net::DeliveryOutcome::kDelivered) {
                         ++*delivered;
                       } else {
                         ++*lost;
                       }
                     }).ok());
    });
  }

  // Silent corruption lands mid-run too — only the replica can fix it.
  sim.ScheduleAt(8'000.0, [&primary] { primary.CorruptSilently("f03"); });

  obs::MetricsRegistry metrics;
  obs::TracerConfig trace_config;
  trace_config.clock = obs::TracerConfig::ClockMode::kExternal;
  trace_config.external_now_sec = [&sim] { return sim.Now(); };
  obs::Tracer tracer(trace_config);

  // Repair tickets outlive several scrub cycles (5000s vs 1500s), so any
  // fault pending when the next cycle rescans it MUST dedup, not re-file.
  recover::ScrubberConfig scrub_config;
  scrub_config.cycle_interval_sec = 1'500.0;
  scrub_config.files_per_cycle = kFiles;
  scrub_config.operator_repair_seconds = 5'000.0;
  scrub_config.passes = 25;
  recover::Scrubber scrubber(&sim, &primary, &replica, scrub_config);
  scrubber.SetObserver(&tracer, &metrics);
  ASSERT_TRUE(scrubber.Start().ok());

  sim.Run();
  EXPECT_GT(sim.Now(), kHorizonSec);

  // Ordering/conservation laws that hold for ANY seed:
  // every detection either filed a ticket or joined the pending one...
  EXPECT_EQ(scrubber.tickets_filed() + scrubber.tickets_deduped(),
            scrubber.bad_blocks_found() + scrubber.silent_corruption_found());
  // ...every filed ticket executed exactly once with exactly one outcome...
  EXPECT_EQ(scrubber.repairs_local() + scrubber.restored_from_replica() +
                scrubber.already_repaired() + scrubber.unrecoverable(),
            scrubber.tickets_filed());
  // ...and none is still pending or unrecoverable (the replica is clean).
  EXPECT_EQ(scrubber.tickets_pending(), 0);
  EXPECT_EQ(scrubber.unrecoverable(), 0);

  // This seed's plan guarantees the interesting collisions happened: each
  // distinct victim was ticketed at least once, pending tickets absorbed
  // re-detections, and the silent corruption needed the replica.
  EXPECT_GE(scrubber.tickets_filed(),
            static_cast<int64_t>(expected_victims.size()) + 1);
  EXPECT_GE(scrubber.tickets_deduped(), 1);
  EXPECT_GE(scrubber.restored_from_replica(), 1);
  EXPECT_GE(scrubber.silent_corruption_found(), 1);

  // The archive healed.
  for (const std::string& file : primary.FileNames()) {
    EXPECT_FALSE(primary.HasBadBlock(file)) << file;
    EXPECT_FALSE(primary.IsSilentlyCorrupt(file)) << file;
  }

  // The link took exactly the planned outages, and ingest accounting
  // conserves across them.
  EXPECT_EQ(wan.outages(), planned_flaps);
  EXPECT_EQ(*delivered + *lost, sent);
  EXPECT_GT(*delivered, 0);

  // The registry holds the scrubber's counts. The schedule fixes two of
  // them exactly: every cycle scans the whole (constant) namespace, so
  // each of the configured passes scanned every file once.
  EXPECT_EQ(metrics.CounterValue("scrub.passes"), scrub_config.passes);
  EXPECT_EQ(metrics.CounterValue("scrub.files_scanned"),
            int64_t{scrub_config.passes} * kFiles);
  EXPECT_EQ(metrics.CounterValue("scrub.tickets_filed") +
                metrics.CounterValue("scrub.tickets_deduped"),
            metrics.CounterValue("scrub.bad_blocks_found") +
                metrics.CounterValue("scrub.silent_corruption_found"));

  // Nothing was injected into the void.
  EXPECT_EQ(injector.unmatched(), 0);
  EXPECT_EQ(injector.injected(),
            static_cast<int64_t>(plan->events().size()));
}

/// Healthy -> "<tag>:<path>"; failing -> Internal. Thread-safe.
class SwitchableService : public core::WebService {
 public:
  explicit SwitchableService(std::string tag) : tag_(std::move(tag)) {}

  Result<core::ServiceResponse> Handle(
      const core::ServiceRequest& request) override {
    calls_.fetch_add(1);
    if (failing_.load()) {
      return Status::Internal(tag_ + " backend down");
    }
    core::ServiceResponse response;
    response.body = tag_ + ":" + request.path;
    response.cache_max_age_sec = core::ServiceResponse::kUncacheable;
    return response;
  }
  std::vector<std::string> Endpoints() const override { return {"echo"}; }
  const std::string& name() const override { return tag_; }

  void set_failing(bool failing) { failing_.store(failing); }
  int64_t calls() const { return calls_.load(); }

 private:
  std::string tag_;
  std::atomic<bool> failing_{false};
  std::atomic<int64_t> calls_{0};
};

// The serve half of the combined scenario: a primary dies under load, the
// breaker trips, a replica absorbs traffic, the primary heals, a probe
// closes the breaker — and the whole arc lands in the same shared
// MetricsRegistry a scrub run already counted into, with exact
// "serve.breaker_*" counts.
TEST(CombinedChaosTest, BreakerTripsAndRecoversIntoSharedRegistry) {
  obs::MetricsRegistry metrics;

  // First a small scrub publishes "scrub.*" into the registry, so the
  // serve counters below land next to (not on top of) another subsystem.
  {
    sim::Simulation sim;
    storage::TapeLibrary primary(&sim, "primary",
                                 storage::TapeLibraryConfig{});
    storage::TapeLibrary replica(&sim, "replica",
                                 storage::TapeLibraryConfig{});
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(primary.Write(FileName(i), kGB, nullptr).ok());
      ASSERT_TRUE(replica.Write(FileName(i), kGB, nullptr).ok());
    }
    sim.Run();
    primary.MarkBadBlock("f02");
    recover::ScrubberConfig config;
    config.cycle_interval_sec = 100.0;
    recover::Scrubber scrubber(&sim, &primary, &replica, config);
    scrubber.SetObserver(nullptr, &metrics);
    ASSERT_TRUE(scrubber.Start().ok());
    sim.Run();
    ASSERT_EQ(scrubber.tickets_filed(), 1);
  }

  core::ServiceRegistry primary_registry;
  core::ServiceRegistry replica_registry;
  auto primary = std::make_shared<SwitchableService>("primary");
  auto replica = std::make_shared<SwitchableService>("replica");
  ASSERT_TRUE(primary_registry.Mount("svc", primary).ok());
  ASSERT_TRUE(replica_registry.Mount("svc", replica).ok());

  serve::ServeConfig config;
  config.num_workers = 2;
  config.metrics = &metrics;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 3;
  config.breaker.open_sec = 0.05;
  config.breaker.open_max_sec = 0.4;
  serve::ServeLoop loop(&primary_registry, config);
  ASSERT_TRUE(loop.SetReplica("svc", &replica_registry).ok());

  core::ServiceRequest request;
  request.path = "svc/echo";

  // Trip: enough consecutive primary failures to open the breaker.
  primary->set_failing(true);
  for (int i = 0; i < 8; ++i) {
    (void)loop.Execute(request);
  }
  serve::ServeStats mid = loop.Stats();
  EXPECT_GE(mid.breaker_opened, 1);
  // Open breaker + live replica: requests fail over and succeed.
  EXPECT_GE(mid.failover_requests, 1);

  // Heal, outlast the open window, and keep offering traffic until a
  // half-open probe closes the breaker (bounded wait: ~100 x 20ms).
  primary->set_failing(false);
  bool closed = false;
  for (int i = 0; i < 100 && !closed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)loop.Execute(request);
    closed = loop.Stats().breaker_closed >= 1;
  }
  EXPECT_TRUE(closed) << "breaker never closed after the primary healed";

  serve::ServeStats stats = loop.Stats();
  EXPECT_GE(stats.breaker_opened, 1);
  EXPECT_GE(stats.breaker_closed, 1);
  EXPECT_GE(stats.breaker_probes, 1);

  // Exact accounting from the backends' own call counts. Execute() calls
  // are serialized, so each reached exactly one backend: the replica took
  // the failovers, and every primary call past the three that tripped the
  // breaker was a probe (the loop stops at the first close). Each failed
  // probe re-opened the breaker and the one that succeeded closed it, so
  // opens equal probes; the errors are the three trips plus the failed
  // probes.
  const int64_t probes = primary->calls() - 3;
  EXPECT_EQ(metrics.CounterValue("serve.offered"),
            primary->calls() + replica->calls());
  EXPECT_EQ(metrics.CounterValue("serve.failover"), replica->calls());
  EXPECT_EQ(metrics.CounterValue("serve.breaker_probes"), probes);
  EXPECT_EQ(metrics.CounterValue("serve.breaker_opened"), probes);
  EXPECT_EQ(metrics.CounterValue("serve.breaker_closed"), 1);
  EXPECT_EQ(metrics.CounterValue("serve.breaker_rejected"), 0);
  EXPECT_EQ(metrics.CounterValue("serve.errors"), 3 + probes - 1);

  // The earlier scrub's counters were not clobbered by the serve run.
  EXPECT_EQ(metrics.CounterValue("scrub.tickets_filed"), 1);
  EXPECT_EQ(metrics.CounterValue("scrub.restored_from_replica"), 1);
}

}  // namespace
}  // namespace dflow
