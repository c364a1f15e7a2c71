#include "recover/scrubber.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"

namespace dflow::recover {

namespace {

/// Virtual seconds -> trace microseconds.
int64_t UsOf(double seconds) {
  return static_cast<int64_t>(std::llround(seconds * 1e6));
}

}  // namespace

Scrubber::Scrubber(sim::Simulation* simulation, storage::TapeLibrary* primary,
                   storage::TapeLibrary* replica, ScrubberConfig config)
    : simulation_(simulation), primary_(primary), replica_(replica),
      config_(config),
      owned_metrics_(std::make_unique<obs::MetricsRegistry>()) {
  DFLOW_CHECK(simulation_ != nullptr);
  DFLOW_CHECK(primary_ != nullptr);
  DFLOW_CHECK(config_.files_per_cycle > 0);
  DFLOW_CHECK(config_.cycle_interval_sec >= 0.0);
  DFLOW_CHECK(config_.passes >= 1);
  ResolveCounters(owned_metrics_.get());
}

void Scrubber::SetObserver(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  if (metrics != nullptr) {
    DFLOW_CHECK(owned_metrics_ != nullptr && owned_metrics_->AllCountersZero())
        << "Scrubber: attach the registry once, before the first count";
    owned_metrics_.reset();
    ResolveCounters(metrics);
  }
}

void Scrubber::ResolveCounters(obs::MetricsRegistry* metrics) {
  counters_.files_scanned = metrics->GetCounter("scrub.files_scanned");
  counters_.bad_blocks_found = metrics->GetCounter("scrub.bad_blocks_found");
  counters_.silent_corruption_found =
      metrics->GetCounter("scrub.silent_corruption_found");
  counters_.tickets_filed = metrics->GetCounter("scrub.tickets_filed");
  counters_.tickets_deduped = metrics->GetCounter("scrub.tickets_deduped");
  counters_.repairs_local = metrics->GetCounter("scrub.repairs_local");
  counters_.restored_from_replica =
      metrics->GetCounter("scrub.restored_from_replica");
  counters_.already_repaired = metrics->GetCounter("scrub.already_repaired");
  counters_.unrecoverable = metrics->GetCounter("scrub.unrecoverable");
  counters_.passes = metrics->GetCounter("scrub.passes");
}

Status Scrubber::Start() {
  if (started_) {
    return Status::FailedPrecondition("scrubber already started");
  }
  started_ = true;
  simulation_->Schedule(config_.cycle_interval_sec, [this] { RunCycle(); });
  return Status::OK();
}

void Scrubber::RunCycle() {
  if (cursor_ >= worklist_.size()) {
    // Fresh pass: snapshot the namespace (sorted — the migration walk
    // order), so files archived mid-pass are picked up next pass.
    worklist_ = primary_->FileNames();
    cursor_ = 0;
    if (worklist_.empty()) {
      // Nothing archived yet; try again next cycle unless out of passes.
      ++passes_completed_;
      counters_.passes->Add();
      if (passes_completed_ < config_.passes) {
        simulation_->Schedule(config_.cycle_interval_sec,
                              [this] { RunCycle(); });
      }
      return;
    }
  }
  double cycle_start = simulation_->Now();
  size_t end = std::min(cursor_ + static_cast<size_t>(config_.files_per_cycle),
                        worklist_.size());
  int scanned_this_cycle = 0;
  for (; cursor_ < end; ++cursor_) {
    ScrubFile(worklist_[cursor_]);
    ++scanned_this_cycle;
  }
  if (obs::Tracer* tracer = ActiveTracer()) {
    tracer->CompleteEvent("scrub.cycle", "recover", UsOf(cycle_start), 0,
                          {{"files", std::to_string(scanned_this_cycle)},
                           {"cursor", std::to_string(cursor_)}});
  }
  bool pass_done = cursor_ >= worklist_.size();
  if (pass_done) {
    ++passes_completed_;
    counters_.passes->Add();
  }
  if (!pass_done || passes_completed_ < config_.passes) {
    simulation_->Schedule(config_.cycle_interval_sec, [this] { RunCycle(); });
  }
}

void Scrubber::ScrubFile(const std::string& file) {
  // A scrub verification is a full read: it pays drive mount + stream time
  // and surfaces loud bad blocks exactly like a production recall. The
  // checksum comparison afterwards catches silent bit rot the read does
  // not report.
  Status s = primary_->ReadChecked(file, [this, file](Result<int64_t> bytes) {
    counters_.files_scanned->Add();
    if (!bytes.ok()) {
      counters_.bad_blocks_found->Add();
      if (obs::Tracer* tracer = ActiveTracer()) {
        tracer->InstantEvent("scrub.bad_block", "recover", {{"file", file}});
      }
      FileTicket(file, "bad_block");
      return;
    }
    if (primary_->IsSilentlyCorrupt(file)) {
      counters_.silent_corruption_found->Add();
      if (obs::Tracer* tracer = ActiveTracer()) {
        tracer->InstantEvent("scrub.silent_corruption", "recover",
                             {{"file", file}});
      }
      FileTicket(file, "checksum_mismatch");
    }
  });
  if (!s.ok()) {
    // File vanished between the namespace snapshot and the read (tape
    // files are never deleted today, but stay defensive).
    DFLOW_LOG(Warning) << "scrub: cannot read '" << file
                       << "': " << s.ToString();
  }
}

void Scrubber::FileTicket(const std::string& file, const std::string& reason) {
  if (pending_tickets_.count(file) > 0) {
    // A ticket is already on its way for this file (e.g. the loud bad
    // block was also seen by an HSM recall this pass): never double-file.
    counters_.tickets_deduped->Add();
    return;
  }
  pending_tickets_.insert(file);
  counters_.tickets_filed->Add();
  if (obs::Tracer* tracer = ActiveTracer()) {
    tracer->InstantEvent("scrub.ticket_filed", "recover",
                         {{"file", file}, {"reason", reason}});
  }
  DFLOW_LOG(Warning) << "scrub: ticket filed for '" << file << "' ("
                     << reason << ") at t=" << simulation_->Now();
  simulation_->Schedule(config_.operator_repair_seconds,
                        [this, file] { ExecuteTicket(file); });
}

void Scrubber::ExecuteTicket(const std::string& file) {
  pending_tickets_.erase(file);
  bool loud = primary_->HasBadBlock(file);
  bool silent = primary_->IsSilentlyCorrupt(file);
  if (!loud && !silent) {
    // Someone else fixed it first (an HSM recall's operator repair, or a
    // concurrent migration re-write). Counting — not re-repairing — is
    // the no-double-repair contract.
    counters_.already_repaired->Add();
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->InstantEvent("scrub.already_repaired", "recover",
                           {{"file", file}});
    }
    return;
  }
  bool replica_clean = replica_ != nullptr && replica_->Contains(file) &&
                       !replica_->HasBadBlock(file) &&
                       !replica_->IsSilentlyCorrupt(file);
  if (silent && !replica_clean) {
    // Bit rot with no clean copy anywhere: nothing to restore from.
    counters_.unrecoverable->Add();
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->InstantEvent("scrub.unrecoverable", "recover",
                           {{"file", file}});
    }
    DFLOW_LOG(Error) << "scrub: '" << file
                     << "' silently corrupt with no clean replica";
    return;
  }
  auto finish_repair = [this, file](bool from_replica) {
    primary_->RepairBadBlock(file);
    primary_->ClearSilentCorruption(file);
    if (from_replica) {
      counters_.restored_from_replica->Add();
    } else {
      counters_.repairs_local->Add();
    }
    if (obs::Tracer* tracer = ActiveTracer()) {
      tracer->InstantEvent("scrub.repaired", "recover",
                           {{"file", file},
                            {"source", from_replica ? "replica" : "local"}});
    }
  };
  if (replica_clean) {
    // Restoring means reading the surviving copy — real drive time on the
    // replica library — then re-writing the primary medium.
    Status s = replica_->ReadChecked(
        file, [this, file, finish_repair](Result<int64_t> bytes) {
          if (!bytes.ok()) {
            // The replica developed a fault between the check and the
            // read; fall back to the local operator repair if the failure
            // was loud, else give up.
            if (primary_->HasBadBlock(file)) {
              finish_repair(/*from_replica=*/false);
            } else {
              counters_.unrecoverable->Add();
            }
            return;
          }
          finish_repair(/*from_replica=*/true);
        });
    if (s.ok()) {
      return;
    }
    DFLOW_LOG(Warning) << "scrub: replica read of '" << file
                       << "' failed: " << s.ToString();
  }
  // No replica path: the operator can clear a loud bad block in place
  // (re-tension / re-write from the drive's error-corrected stream).
  finish_repair(/*from_replica=*/false);
}

}  // namespace dflow::recover
