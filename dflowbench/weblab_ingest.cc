// weblab_ingest: the WebLab write path (the paper's §4.1 preload) and
// reads from a working set larger than the buffer pool. Each cycle:
//   1. weblab::PreloadSubsystem LoadArcFiles + LoadDatFiles of a seeded
//      crawl into a durable db::Database::Open whose pool (256 frames of
//      8 KB) is far smaller than the loaded heap (~1,500 pages at 20k
//      pages);
//   2. Zipf point queries through db::Database::Execute on the
//      links_by_src index;
//   3. close and reopen, which replays the WAL.
// The run repeats the cycle for its seconds and reports medians over
// cycles. The workload barely touches serve, cluster or arecibo.
//
// The traced run alternates plain cycles with cycles that also time each
// phase call and read the pool counters; the wall-time difference between
// the two kinds is the tracing overhead.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "db/database.h"
#include "util/rng.h"
#include "weblab/arc_format.h"
#include "weblab/crawler.h"
#include "weblab/page_store.h"
#include "weblab/preload.h"

namespace dflowbench {
namespace {

using dflow::db::Database;
using dflow::db::DatabaseOptions;

constexpr int kPages = 20000;
constexpr int kFiles = 8;          // ARC and DAT files per crawl.
constexpr size_t kPoolFrames = 256;
constexpr int kQueriesPerCycle = 20000;
constexpr int kWarmupPages = 1000;

struct Crawl {
  std::vector<std::string> arc_blobs;
  std::vector<std::string> dat_blobs;
  std::vector<std::string> urls;
  std::map<std::string, std::vector<std::string>> links;  // Sorted targets.
  int64_t compressed_bytes = 0;
  int64_t metadata_bytes = 0;  // Logical bytes of the pages + links rows.
  int64_t link_count = 0;
};

Crawl MakeCrawl(int pages, uint64_t seed) {
  dflow::weblab::CrawlerConfig config;
  config.initial_pages = pages;
  config.seed = seed;
  dflow::weblab::SyntheticCrawler crawler(config);
  dflow::weblab::Crawl generated = crawler.NextCrawl();
  Crawl crawl;
  const size_t n = generated.pages.size();
  for (int f = 0; f < kFiles; ++f) {
    std::vector<dflow::weblab::WebPage> part(
        generated.pages.begin() + static_cast<std::ptrdiff_t>(n * f / kFiles),
        generated.pages.begin() +
            static_cast<std::ptrdiff_t>(n * (f + 1) / kFiles));
    crawl.arc_blobs.push_back(dflow::weblab::WriteArcFile(part));
    crawl.dat_blobs.push_back(dflow::weblab::WriteDatFile(part));
    crawl.compressed_bytes +=
        static_cast<int64_t>(crawl.arc_blobs.back().size() +
                             crawl.dat_blobs.back().size());
  }
  for (const auto& page : generated.pages) {
    crawl.urls.push_back(page.url);
    std::vector<std::string>& targets = crawl.links[page.url];
    targets = page.links;
    std::sort(targets.begin(), targets.end());
    crawl.link_count += static_cast<int64_t>(page.links.size());
    crawl.metadata_bytes += static_cast<int64_t>(
        page.url.size() + page.ip.size() + page.mime_type.size() + 3 * 8);
    for (const std::string& target : page.links) {
      crawl.metadata_bytes +=
          static_cast<int64_t>(page.url.size() + target.size() + 8);
    }
  }
  return crawl;
}

std::string Quote(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    if (c == '\'') out += '\'';
    out += c;
  }
  return out + "'";
}

int64_t CountRows(Database* db, const std::string& table) {
  auto result = db->Execute("SELECT COUNT(*) FROM " + table);
  if (!result.ok() || result->rows.empty()) return -1;
  return result->rows[0][0].AsInt();
}

struct CycleResult {
  bool ok = false;
  double wall_sec = 0;
  double arc_sec = 0, dat_sec = 0, reopen_sec = 0, query_sec = 0;
  double load_cpu_sec = 0;  // Process CPU time during the preload.
  std::vector<double> query_ms;
  int64_t pages_loaded = 0, links_loaded = 0;
  int64_t query_failures = 0;
  int64_t wal_bytes = 0, heap_bytes = 0;
  dflow::db::BufferPool::Stats load_pool, query_pool;
  bool counts_before = false, counts_after = false;
};

dflow::db::BufferPool::Stats Delta(const dflow::db::BufferPool::Stats& a,
                                   const dflow::db::BufferPool::Stats& b) {
  dflow::db::BufferPool::Stats d;
  d.hits = b.hits - a.hits;
  d.misses = b.misses - a.misses;
  d.evictions = b.evictions - a.evictions;
  d.writebacks = b.writebacks - a.writebacks;
  return d;
}

/// One preload -> query -> reopen cycle into a fresh durable database at
/// `path` (which must not exist; the run deletes its files at the end, so
/// no unlink or discard of the previous cycle's files runs during timing).
/// `traced` also reads the pool counters around the phases. The row-count
/// checks run outside the cycle's wall time.
CycleResult RunCycle(const Crawl& crawl, const std::vector<int>& query_pages,
                     const std::string& path, bool traced) {
  CycleResult cycle;
  DatabaseOptions options;
  options.pool_frames = kPoolFrames;
  const double start = NowSec();
  {
    auto opened = Database::Open(path, options);
    if (!opened.ok()) return cycle;
    std::unique_ptr<Database> db = std::move(*opened);
    dflow::weblab::PageStore page_store;
    dflow::weblab::PreloadSubsystem preload(dflow::weblab::PreloadConfig{},
                                            db.get(), &page_store);
    dflow::db::BufferPool::Stats pool0, pool1, pool2;
    if (traced) pool0 = db->pool()->stats();
    const double cpu0 = ProcessCpuSec();
    double t = NowSec();
    auto arc = preload.LoadArcFiles(crawl.arc_blobs);
    cycle.arc_sec = NowSec() - t;
    t = NowSec();
    auto dat = preload.LoadDatFiles(crawl.dat_blobs);
    cycle.dat_sec = NowSec() - t;
    cycle.load_cpu_sec = ProcessCpuSec() - cpu0;
    if (!arc.ok() || !dat.ok()) return cycle;
    cycle.pages_loaded = dat->pages_loaded;
    cycle.links_loaded = dat->links_loaded;
    if (traced) pool1 = db->pool()->stats();

    for (int page : query_pages) {
      const std::string& url = crawl.urls[static_cast<size_t>(page)];
      const double q0 = NowSec();
      auto result =
          db->Execute("SELECT dst FROM links WHERE src = " + Quote(url));
      const double q1 = NowSec();
      cycle.query_ms.push_back((q1 - q0) * 1e3);
      cycle.query_sec += q1 - q0;
      std::vector<std::string> got;
      if (result.ok()) {
        for (const auto& row : result->rows) got.push_back(row[0].AsString());
      }
      std::sort(got.begin(), got.end());
      if (!result.ok() || got != crawl.links.at(url)) ++cycle.query_failures;
    }
    if (traced) {
      pool2 = db->pool()->stats();
      cycle.load_pool = Delta(pool0, pool1);
      cycle.query_pool = Delta(pool1, pool2);
      cycle.wal_bytes = db->wal_bytes();
      cycle.heap_bytes = db->TotalBytes();
    }
    cycle.wall_sec = NowSec() - start;
    cycle.counts_before =
        CountRows(db.get(), "pages") == static_cast<int64_t>(crawl.urls.size()) &&
        CountRows(db.get(), "links") == crawl.link_count;
  }
  const double t = NowSec();
  auto reopened = Database::Open(path, options);
  cycle.reopen_sec = NowSec() - t;
  if (!reopened.ok()) return cycle;
  cycle.wall_sec += cycle.reopen_sec;
  cycle.counts_after =
      CountRows(reopened->get(), "pages") ==
          static_cast<int64_t>(crawl.urls.size()) &&
      CountRows(reopened->get(), "links") == crawl.link_count;
  reopened->reset();
  cycle.ok = true;
  return cycle;
}

/// Zipf-popular pages: rank r maps to a seeded random page.
std::vector<int> QueryPages(int pages, uint64_t seed, int count) {
  dflow::Rng rng(seed ^ 0x9e37ull);
  std::vector<int> order(static_cast<size_t>(pages));
  for (int i = 0; i < pages; ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(order);
  std::vector<int> queries;
  for (int i = 0; i < count; ++i) {
    queries.push_back(order[static_cast<size_t>(rng.Zipf(pages, 0.9) - 1)]);
  }
  return queries;
}

/// Builds an empty durable database and its preload subsystem, then warms
/// the load and replay paths with a small crawl. Returns seconds.
double SetUp(const Crawl& warmup, const std::string& path) {
  const double start = NowSec();
  CycleResult warm = RunCycle(warmup, {0}, path, false);
  const double elapsed = NowSec() - start;
  return warm.ok ? elapsed : -1.0;
}

}  // namespace

void RunWeblabIngest(const Args& args, Report* report) {
  // A set-up-only run skips the main crawl, which set-up does not use.
  const Crawl crawl =
      args.setup_only ? Crawl{} : MakeCrawl(kPages, args.seed);
  const Crawl warmup = MakeCrawl(kWarmupPages, args.seed + 1);
  const std::vector<int> queries =
      args.setup_only ? std::vector<int>{}
                      : QueryPages(static_cast<int>(crawl.urls.size()),
                                   args.seed, kQueriesPerCycle);
  int files = 0;
  auto next_path = [&] {
    return args.work_dir + "/weblab" + std::to_string(files++) + ".wal";
  };
  ResetPeakRss();

  const double setup_sec = SetUp(warmup, next_path());
  report->Check("set-up cycle succeeds", setup_sec >= 0);
  if (setup_sec < 0) return;
  if (args.setup_only) {
    report->EndToEnd("setup_s", setup_sec);
    return;
  }

  std::vector<CycleResult> cycles;
  const double deadline = NowSec() + args.seconds;
  // A traced run alternates plain and traced cycles.
  std::vector<bool> traced_cycle;
  while (cycles.size() < 3 || NowSec() < deadline) {
    const bool traced = args.trace && cycles.size() % 2 == 1;
    cycles.push_back(RunCycle(crawl, queries, next_path(), traced));
    traced_cycle.push_back(traced);
    if (!cycles.back().ok) break;
  }

  int64_t attempted = 0, failed = 0, query_failures = 0;
  bool all_ok = true;
  bool counts_before = true, counts_after = true;
  std::vector<double> ingest_pages, ingest_mb, p50, p99, reopen, arc, dat,
      plain_wall, traced_wall, hit_ratio, evictions, writebacks, accounted,
      cpu_util;
  const CycleResult* traced_last = nullptr;
  for (size_t i = 0; i < cycles.size(); ++i) {
    const CycleResult& cycle = cycles[i];
    all_ok = all_ok && cycle.ok;
    counts_before = counts_before && cycle.counts_before;
    counts_after = counts_after && cycle.counts_after;
    attempted += 1 + static_cast<int64_t>(cycle.query_ms.size());
    failed += (cycle.ok ? 0 : 1) + cycle.query_failures;
    query_failures += cycle.query_failures;
    if (!cycle.ok) continue;
    const double load_sec = cycle.arc_sec + cycle.dat_sec;
    ingest_pages.push_back(cycle.pages_loaded / load_sec);
    ingest_mb.push_back(crawl.compressed_bytes / 1e6 / load_sec);
    p50.push_back(Quantile(cycle.query_ms, 0.50));
    p99.push_back(Quantile(cycle.query_ms, 0.99));
    reopen.push_back(cycle.reopen_sec);
    arc.push_back(cycle.arc_sec);
    dat.push_back(cycle.dat_sec);
    // The phases are timed around each public call; whatever the cycle
    // spends outside them (opening, schema, closing) is unaccounted.
    accounted.push_back((cycle.arc_sec + cycle.dat_sec + cycle.query_sec +
                         cycle.reopen_sec) /
                        cycle.wall_sec);
    if (!traced_cycle[i]) {
      plain_wall.push_back(cycle.wall_sec);
      continue;
    }
    traced_last = &cycle;
    traced_wall.push_back(cycle.wall_sec);
    cpu_util.push_back(cycle.load_cpu_sec /
                       (load_sec * dflow::weblab::PreloadConfig{}.parallelism));
    hit_ratio.push_back(Ratio(cycle.query_pool.hits,
                              cycle.query_pool.hits + cycle.query_pool.misses));
    evictions.push_back(static_cast<double>(cycle.load_pool.evictions +
                                            cycle.query_pool.evictions));
    writebacks.push_back(static_cast<double>(cycle.load_pool.writebacks +
                                             cycle.query_pool.writebacks));
  }
  report->Check("preload, queries and reopen succeed", all_ok);
  report->Check("page and link counts equal the crawl before reopen",
                counts_before);
  report->Check("page and link counts equal the crawl after reopen",
                counts_after);
  report->Check("query results equal the generated link lists",
                query_failures == 0,
                std::to_string(query_failures) + " mismatches");
  report->Attempt(attempted, failed);
  if (!all_ok) return;

  report->Note(std::to_string(cycles.size()) + " cycles of " +
               std::to_string(crawl.urls.size()) + " pages / " +
               std::to_string(crawl.link_count) + " links, " +
               std::to_string(crawl.compressed_bytes / 1000) +
               " kB compressed into a " + std::to_string(kPoolFrames) +
               "-frame pool; " +
               std::to_string(kQueriesPerCycle) +
               " queries per cycle; figures are medians over cycles");
  if (!args.trace) {
    report->Note("ingest pages/s per cycle:" + Join(ingest_pages) +
                 "; query p50 ms per cycle:" + Join(p50));
    report->EndToEnd("setup_s", setup_sec);
    report->EndToEnd("throughput_per_s", Median(ingest_pages));
    report->EndToEnd("latency_p50_ms", Median(p50));
    report->EndToEnd("latency_tail_ms", Median(p99));
    report->Info("ingest_mb_per_s", Median(ingest_mb), "MB/s");
    report->Info("read_p50_ms", Median(p50), "ms");
    report->Info("read_p99_ms", Median(p99), "ms");
    report->Info("reopen_s", Median(reopen), "s");
    report->Info("fail_frac", Ratio(failed, attempted), "frac");
  } else if (traced_last != nullptr) {
    const CycleResult& last = *traced_last;
    report->Layer("db.pool_hit_ratio", Median(hit_ratio));
    report->Layer("db.pool_evictions", Median(evictions));
    report->Layer("db.pool_writebacks", Median(writebacks));
    report->Layer("db.wal_bytes_per_byte",
                  Ratio(last.wal_bytes, crawl.metadata_bytes));
    report->Layer("db.heap_bytes_per_byte",
                  Ratio(last.heap_bytes, crawl.metadata_bytes));
    report->Layer("weblab.arc_load_s", Median(arc));
    report->Layer("weblab.dat_load_s", Median(dat));
    report->Layer("weblab.pages_loaded",
                  static_cast<double>(last.pages_loaded));
    report->Layer("weblab.links_loaded",
                  static_cast<double>(last.links_loaded));
    report->Layer("par.cpu_util", Median(cpu_util));
    report->Layer("bench.accounted_frac", Median(accounted));
    report->Layer("bench.trace_overhead_frac",
                  Median(traced_wall) / Median(plain_wall) - 1.0);
    report->Note("heap " + std::to_string(last.heap_bytes / 8192) +
                 " pages; pool hit ratio over the query phase, evictions "
                 "and writebacks over preload + queries; bytes per byte "
                 "against the logical bytes of the loaded rows; "
                 "accounted_frac = (arc + dat + queries + reopen) / cycle "
                 "wall, tolerance [0.9, 1.0]; par.cpu_util over the preload "
                 "against its worker count");
    report->Check("phase times account for the cycle within 10%",
                  Median(accounted) >= 0.9 && Median(accounted) <= 1.0 + 1e-9,
                  std::to_string(Median(accounted)));
  }
  report->EndToEnd("peak_rss_mb", PeakRssMb());
}

}  // namespace dflowbench
