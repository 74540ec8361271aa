#include "src/pil/boundary.h"

#include <utility>

#include "src/common/check.h"

namespace scalecheck {

const char* ReplayPolicyName(ReplayPolicy policy) {
  switch (policy) {
    case ReplayPolicy::kFallbackToModelled:
      return "fallback";
    case ReplayPolicy::kWarn:
      return "warn";
    case ReplayPolicy::kStrict:
      return "strict";
  }
  return "?";
}

const char* PilModeName(PilMode mode) {
  switch (mode) {
    case PilMode::kDirect:
      return "direct";
    case PilMode::kMemoize:
      return "memoize";
    case PilMode::kReplay:
      return "replay";
  }
  return "?";
}

PilBoundary::PilBoundary(Simulator* sim, PilMode mode, MemoStore* store,
                         double core_speed)
    : sim_(sim), mode_(mode), store_(store), core_speed_(core_speed) {
  CHECK_NOTNULL(sim);
  CHECK_GT(core_speed, 0.0);
  if (mode != PilMode::kDirect) {
    CHECK_NOTNULL(store) << "memoize/replay modes need a MemoStore";
  }
}

void PilBoundary::Apply(
    Job* job, PilFunctionId function, std::function<DigestValue()> digest_fn,
    std::function<ComputeOutput()> compute_fn,
    std::function<void(const std::vector<uint8_t>&, bool)> apply_fn) {
  CHECK_NOTNULL(job);

  // Mutable state threaded through the steps of one invocation.
  struct Capture {
    DigestValue digest;
    ComputeOutput computed;
    const MemoRecord* record = nullptr;
  };
  auto cap = std::make_shared<Capture>();

  switch (mode_) {
    case PilMode::kDirect:
      job->Run([this, cap, compute_fn = std::move(compute_fn)] {
            cap->computed = compute_fn();
            ++stats_.direct_runs;
          })
          .Compute([cap] { return cap->computed.work; })
          .Run([cap, apply_fn = std::move(apply_fn)] {
            apply_fn(cap->computed.output, /*from_memo=*/false);
          });
      break;

    case PilMode::kMemoize:
      job->Run([this, cap, digest_fn = std::move(digest_fn),
                compute_fn = std::move(compute_fn)] {
            cap->digest = digest_fn();
            cap->computed = compute_fn();
            ++stats_.memoized_runs;
          })
          .Compute([cap] { return cap->computed.work; })
          .Run([this, cap, function, apply_fn = std::move(apply_fn)] {
            MemoRecord record;
            record.output = cap->computed.output;
            record.work = cap->computed.work;
            // In-situ time recording: the function's own CPU time, not the
            // contended wall time of the memoization run.
            record.cpu_duration = WorkToDuration(cap->computed.work);
            store_->Put(function, cap->digest, std::move(record));
            apply_fn(cap->computed.output, /*from_memo=*/false);
          });
      break;

    case PilMode::kReplay:
      job->Async([this, cap, function, digest_fn = std::move(digest_fn),
                  compute_fn = std::move(compute_fn)](std::function<void()> done) {
            cap->digest = digest_fn();
            cap->record = store_->Lookup(function, cap->digest);
            VirtualDuration sleep_for;
            if (cap->record != nullptr) {
              ++stats_.replay_hits;
              sleep_for = cap->record->cpu_duration;
            } else {
              // Divergence fallback: compute the output now (so the replay
              // can proceed correctly) but sleep for the modelled duration
              // instead of charging CPU — the illusion survives a miss. The
              // computed record extends the memo DB, so iterative replays
              // (the paper's debug-replay-debug loop) converge to full hits.
              // Under the strict policy the drift recorder also stops the
              // simulation; the current event still completes normally.
              ++stats_.replay_misses;
              RecordDivergence(function, cap->digest);
              cap->computed = compute_fn();
              sleep_for = WorkToDuration(cap->computed.work);
              MemoRecord record;
              record.output = cap->computed.output;
              record.work = cap->computed.work;
              record.cpu_duration = sleep_for;
              store_->Put(function, cap->digest, std::move(record));
            }
            sim_->ScheduleAfter(sleep_for, std::move(done));
          })
          .Run([cap, apply_fn = std::move(apply_fn)] {
            if (cap->record != nullptr) {
              apply_fn(cap->record->output, /*from_memo=*/true);
            } else {
              apply_fn(cap->computed.output, /*from_memo=*/false);
            }
          });
      break;
  }
}

void PilBoundary::RecordDivergence(PilFunctionId function,
                                   const DigestValue& digest) {
  ++drift_.misses;
  if (drift_.diverged) {
    return;
  }
  drift_.diverged = true;
  drift_.first_function = function;
  drift_.first_digest = digest;
  drift_.first_at = sim_->Now();
  // The diverging call itself has already been counted as a miss.
  drift_.first_call_index = stats_.replay_hits + stats_.replay_misses - 1;
  if (replay_policy_ == ReplayPolicy::kStrict) {
    drift_.aborted = true;
    sim_->RequestStop();
  }
}

}  // namespace scalecheck
