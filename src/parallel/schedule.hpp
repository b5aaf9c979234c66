#pragma once
/// \file schedule.hpp
/// \brief Pluggable slice-scheduling policies.
///
/// The paper's central finding is that the *tasking layer* — how loop
/// iterations map onto workers — dominates sparse MTTKRP performance. The
/// seed re-derived that mapping (a `weighted_partition` over the CSF root
/// prefix) inside every kernel call. This module separates the decision
/// from the execution: a `SchedulePolicy` names the mapping, a
/// `SliceSchedule` is the mapping computed once, and kernels merely walk
/// the ranges it hands them. `MttkrpPlan` (mttkrp/plan.hpp) caches one
/// `SliceSchedule` per mode so the CP-ALS hot loop performs zero
/// partitioning work.
///
/// Policies:
///  * weighted     — contiguous blocks of equal *nonzero* weight, SPLATT's
///                   balancing (the seed's only behaviour, still the
///                   default).
///  * workstealing — per-thread chunk deques seeded from the weighted
///                   partition; owners drain their own deque front-to-back
///                   and idle threads steal chunks from the far end of a
///                   victim's deque. The paper's load-imbalance discussion
///                   (Section V-E) motivates this: the nnz-weighted seed
///                   is the best *static* prediction, stealing absorbs
///                   whatever the prediction misses (hypersparse slice
///                   skew, cache effects, OS noise, oversubscription).

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"

namespace sptd {

/// How a kernel's outer slice loop is distributed over the team.
enum class SchedulePolicy : int {
  kWeighted = 0,  ///< equal nonzero weight per thread (SPLATT)
  kWorkStealing,  ///< weighted seed + per-thread deques, idle threads steal
};

/// Parses "weighted" / "workstealing"; throws sptd::Error otherwise.
SchedulePolicy parse_schedule_policy(const std::string& name);

/// Flag/log name of a policy.
const char* schedule_policy_name(SchedulePolicy policy);

/// Process-wide count of successful work-steal chunk claims (monotonic,
/// relaxed). Exposed like weighted_partition_calls(): benches record the
/// delta per measurement (the `steals` JSON field) and tests assert that
/// stealing actually happens under imbalance.
std::uint64_t work_steal_count();

/// One precomputed distribution of [0, total) slices over a fixed team.
///
/// Weighted schedules are nthreads+1 boundaries fixed at construction;
/// work-stealing schedules carry per-thread chunk deques, which must be
/// reset() (reseeded) before each parallel region that consumes them.
/// Construction is the only place partitioning work happens —
/// for_ranges() on the hot path is a bounds lookup or an (almost always
/// uncontended) CAS on the caller's own deque.
class SliceSchedule {
 public:
  SliceSchedule() = default;

  /// Builds the schedule for \p total slices on \p nthreads workers.
  /// \p weight_prefix (exclusive prefix sum, length total+1) is consulted
  /// by both policies; passing an empty span cuts equal slice counts
  /// instead (the weighted bounds and the work-stealing seed alike).
  /// \p chunk_target is consulted by the work-stealing policy: each
  /// thread's block is cut into up to chunk_target chunks
  /// (MttkrpOptions::chunk_target / the --chunk flag).
  SliceSchedule(SchedulePolicy policy, nnz_t total,
                std::span<const nnz_t> weight_prefix, int nthreads,
                nnz_t chunk_target = kDefaultChunkTarget);

  /// Default work-stealing claims-per-thread target.
  static constexpr nnz_t kDefaultChunkTarget = 16;

  // The atomic counters and deques are not copyable; schedules move.
  SliceSchedule(SliceSchedule&& other) noexcept { *this = std::move(other); }
  SliceSchedule& operator=(SliceSchedule&& other) noexcept {
    policy_ = other.policy_;
    nthreads_ = other.nthreads_;
    bounds_ = std::move(other.bounds_);
    chunks_ = std::move(other.chunks_);
    owner_first_ = std::move(other.owner_first_);
    owner_last_ = std::move(other.owner_last_);
    deques_ = std::move(other.deques_);
    steals_.store(other.steals_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    generation_.store(other.generation_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    entries_.store(other.entries_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] SchedulePolicy policy() const { return policy_; }
  [[nodiscard]] int nthreads() const { return nthreads_; }

  /// Per-thread boundaries (nthreads+1) for weighted, and the
  /// deque *seed* boundaries for workstealing (what each thread owns
  /// before any steal).
  [[nodiscard]] std::span<const nnz_t> bounds() const { return bounds_; }

  /// Work-stealing steal granularity: slice boundaries of the chunk list
  /// (chunk_count()+1 entries); empty for the other policies.
  [[nodiscard]] std::span<const nnz_t> chunk_bounds() const {
    return chunks_;
  }
  [[nodiscard]] nnz_t chunk_count() const {
    return chunks_.empty() ? 0 : static_cast<nnz_t>(chunks_.size()) - 1;
  }

  /// Successful steals through this schedule, cumulative across launches
  /// (reset() reseeds the deques but keeps the counter, so callers can
  /// difference it around a run).
  [[nodiscard]] std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Rewinds the runtime policy: every work-stealing deque is reseeded
  /// with its owner's chunks. Must be called (from serial code) before
  /// every parallel region that consumes a work-stealing schedule; a no-op
  /// for the weighted policy. Each call opens a new launch *generation* —
  /// at most nthreads() workers may enter for_ranges() per generation,
  /// which is how reuse-without-reset is caught (see generation()).
  void reset() const {
    if (policy_ == SchedulePolicy::kWorkStealing) {
      generation_.fetch_add(1, std::memory_order_relaxed);
      entries_.store(0, std::memory_order_relaxed);
      for (int t = 0; t < nthreads_; ++t) {
        deques_[static_cast<std::size_t>(t)].cur.store(
            pack(owner_first_[static_cast<std::size_t>(t)],
                 owner_last_[static_cast<std::size_t>(t)]),
            std::memory_order_relaxed);
      }
    }
  }

  /// Number of reset() calls this schedule has seen (workstealing only;
  /// the weighted policy has no generations). Diagnostic
  /// counterpart of the launch-entry contract below.
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Invokes fn(begin, end) for every contiguous slice range assigned to
  /// \p tid. Weighted: exactly one range. Workstealing: the thread
  /// drains its own deque front-to-back (ascending slices, cache-friendly),
  /// then cycles over the other deques stealing one chunk at a time from
  /// the far end until a full pass finds every deque empty.
  template <typename Fn>
  void for_ranges(int tid, Fn&& fn) const {
    if (policy_ == SchedulePolicy::kWeighted) {
      const nnz_t begin = bounds_[static_cast<std::size_t>(tid)];
      const nnz_t end = bounds_[static_cast<std::size_t>(tid) + 1];
      if (begin < end) {
        fn(begin, end);
      }
      return;
    }
    enforce_reset_contract();
    // Workstealing. Deques only shrink between reset() calls, so once a
    // steal pass observes every other deque empty the work is fully
    // claimed and the thread may leave.
    std::uint32_t c = 0;
    while (claim_own(tid, &c)) {
      fn(chunks_[c], chunks_[c + 1]);
    }
    for (bool progress = true; progress;) {
      progress = false;
      for (int d = 1; d < nthreads_; ++d) {
        const int victim = (tid + d) % nthreads_;
        if (claim_steal(victim, &c)) {
          fn(chunks_[c], chunks_[c + 1]);
          progress = true;
        }
      }
    }
  }

 private:
  /// The work-stealing reuse guard: at most nthreads_ workers may enter
  /// for_ranges() between reset() calls. A second launch that forgot to
  /// reset() pushes the entry count past the team size and fails here —
  /// loudly, instead of silently executing zero iterations against
  /// drained deques (the historical failure mode of cached MttkrpPlan
  /// schedules). The check is one relaxed fetch_add per worker per launch
  /// — noise next to the per-chunk CASes the policy already pays — so it stays on in release builds; inside a
  /// parallel region the throw escalates to std::terminate, i.e. the
  /// contract violation aborts rather than corrupts.
  void enforce_reset_contract() const {
    const std::uint32_t n = entries_.fetch_add(1, std::memory_order_relaxed);
    SPTD_CHECK(n < static_cast<std::uint32_t>(nthreads_),
               "SliceSchedule consumed by more workers than the team size: "
               "work-stealing schedules must be reset() before "
               "every parallel region (generation " +
                   std::to_string(generation()) + ", see ROADMAP contracts)");
  }

  /// One thread's deque: the unclaimed chunk-index window [lo, hi), both
  /// cursors packed into a single word so a claim is one CAS and the
  /// lo/hi race at the last chunk cannot double-issue it. Padded so
  /// owners polling their own deque never false-share with a neighbour.
  struct alignas(kCacheLineBytes) Deque {
    std::atomic<std::uint64_t> cur{0};
  };

  static constexpr std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
    return static_cast<std::uint64_t>(hi) << 32 | lo;
  }

  /// Owner claim: pops the front chunk (ascending order). Returns false
  /// once the deque is empty. O(1); touches only the caller's own line.
  bool claim_own(int tid, std::uint32_t* chunk) const;

  /// Thief claim: pops the *back* chunk of \p victim's deque and bumps the
  /// steal counters. Returns false when the victim has nothing left. O(1).
  bool claim_steal(int victim, std::uint32_t* chunk) const;

  SchedulePolicy policy_ = SchedulePolicy::kWeighted;
  int nthreads_ = 1;
  std::vector<nnz_t> bounds_;
  // Workstealing state: global chunk boundaries plus each owner's
  // [first, last) chunk-index window, used by reset() to reseed.
  std::vector<nnz_t> chunks_;
  std::vector<std::uint32_t> owner_first_;
  std::vector<std::uint32_t> owner_last_;
  std::unique_ptr<Deque[]> deques_;
  mutable std::atomic<std::uint64_t> steals_{0};
  // Launch-generation contract state (see enforce_reset_contract()).
  mutable std::atomic<std::uint64_t> generation_{0};
  mutable std::atomic<std::uint32_t> entries_{0};
};

}  // namespace sptd
