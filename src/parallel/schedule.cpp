#include "parallel/schedule.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sptd {

namespace {

std::atomic<std::uint64_t> g_work_steals{0};

/// Equal-slice-count boundaries (OpenMP schedule(static)): the fallback
/// cut of both policies when no weights exist.
std::vector<nnz_t> equal_count_bounds(nnz_t total, int nthreads) {
  std::vector<nnz_t> bounds(static_cast<std::size_t>(nthreads) + 1);
  for (int t = 0; t < nthreads; ++t) {
    bounds[static_cast<std::size_t>(t)] =
        block_partition(total, nthreads, t).begin;
  }
  bounds[static_cast<std::size_t>(nthreads)] = total;
  return bounds;
}

}  // namespace

std::uint64_t work_steal_count() {
  return g_work_steals.load(std::memory_order_relaxed);
}

SchedulePolicy parse_schedule_policy(const std::string& name) {
  if (name == "weighted") return SchedulePolicy::kWeighted;
  if (name == "workstealing" || name == "work-stealing") {
    return SchedulePolicy::kWorkStealing;
  }
  throw Error("unknown schedule policy '" + name +
              "' (expected weighted|workstealing)");
}

const char* schedule_policy_name(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kWeighted:     return "weighted";
    case SchedulePolicy::kWorkStealing: return "workstealing";
  }
  return "?";
}

SliceSchedule::SliceSchedule(SchedulePolicy policy, nnz_t total,
                             std::span<const nnz_t> weight_prefix,
                             int nthreads, nnz_t chunk_target)
    : policy_(policy), nthreads_(nthreads) {
  SPTD_CHECK(nthreads >= 1, "SliceSchedule: nthreads must be >= 1");
  SPTD_CHECK(chunk_target >= 1, "SliceSchedule: chunk target must be >= 1");
  if (!weight_prefix.empty()) {
    SPTD_CHECK(weight_prefix.size() == total + 1,
               "SliceSchedule: weight prefix length != total + 1");
  }
  // The weighted bounds double as the work-stealing deque seed — the same
  // first assignment SPLATT's balancing would make.
  bounds_ = weight_prefix.empty() ? equal_count_bounds(total, nthreads)
                                  : weighted_partition(weight_prefix, nthreads);
  if (policy_ != SchedulePolicy::kWorkStealing) {
    return;
  }
  // Subdivide every owner's block into <= chunk_target chunks (weight-
  // balanced when weights exist) — the steal granularity. Claims carry
  // 32-bit chunk indices packed two to a word, which bounds the chunk
  // count, never the slice count.
  // Exact bound: each thread contributes min(chunk_target, its block
  // size) chunks, so at most min(total, nthreads * chunk_target)
  // overall — clamped so an absurd --chunk value cannot reserve
  // absurd memory (min before the multiply also keeps it overflow-
  // free).
  const nnz_t per_thread = std::min<nnz_t>(chunk_target, total);
  chunks_.reserve(static_cast<std::size_t>(std::min<nnz_t>(
                      total,
                      static_cast<nnz_t>(nthreads) * per_thread)) + 1);
  chunks_.push_back(0);
  owner_first_.resize(static_cast<std::size_t>(nthreads));
  owner_last_.resize(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    const nnz_t begin = bounds_[static_cast<std::size_t>(t)];
    const nnz_t end = bounds_[static_cast<std::size_t>(t) + 1];
    owner_first_[static_cast<std::size_t>(t)] =
        static_cast<std::uint32_t>(chunks_.size() - 1);
    const nnz_t n = end - begin;
    const nnz_t parts = std::min<nnz_t>(chunk_target, n);
    for (nnz_t p = 1; p <= parts; ++p) {
      nnz_t cut;
      if (p == parts) {
        cut = end;
      } else if (!weight_prefix.empty()) {
        const nnz_t w0 = weight_prefix[static_cast<std::size_t>(begin)];
        const nnz_t target =
            w0 + (weight_prefix[static_cast<std::size_t>(end)] - w0) *
                     p / parts;
        const auto it = std::lower_bound(
            weight_prefix.begin() + static_cast<std::ptrdiff_t>(begin),
            weight_prefix.begin() + static_cast<std::ptrdiff_t>(end),
            target);
        cut = static_cast<nnz_t>(it - weight_prefix.begin());
      } else {
        cut = begin + n * p / parts;
      }
      cut = std::clamp(cut, chunks_.back(), end);
      if (cut > chunks_.back()) {
        chunks_.push_back(cut);  // zero-weight runs collapse chunks
      }
    }
    owner_last_[static_cast<std::size_t>(t)] =
        static_cast<std::uint32_t>(chunks_.size() - 1);
  }
  SPTD_CHECK(chunks_.size() - 1 <= 0xffffffffULL,
             "SliceSchedule: too many work-stealing chunks");
  deques_ = std::make_unique<Deque[]>(static_cast<std::size_t>(nthreads));
  reset();
}

// The claim protocol needs no ordering stronger than relaxed: the chunk
// list is immutable after construction and published by the fork of the
// parallel region, and the single-word CAS alone guarantees every chunk
// index is issued exactly once between reset() calls.

bool SliceSchedule::claim_own(int tid, std::uint32_t* chunk) const {
  auto& q = deques_[static_cast<std::size_t>(tid)].cur;
  std::uint64_t v = q.load(std::memory_order_relaxed);
  for (;;) {
    const auto lo = static_cast<std::uint32_t>(v);
    const auto hi = static_cast<std::uint32_t>(v >> 32);
    if (lo >= hi) {
      return false;
    }
    if (q.compare_exchange_weak(v, pack(lo + 1, hi),
                                std::memory_order_relaxed)) {
      *chunk = lo;
      return true;
    }
  }
}

bool SliceSchedule::claim_steal(int victim, std::uint32_t* chunk) const {
  auto& q = deques_[static_cast<std::size_t>(victim)].cur;
  std::uint64_t v = q.load(std::memory_order_relaxed);
  for (;;) {
    const auto lo = static_cast<std::uint32_t>(v);
    const auto hi = static_cast<std::uint32_t>(v >> 32);
    if (lo >= hi) {
      return false;
    }
    if (q.compare_exchange_weak(v, pack(lo, hi - 1),
                                std::memory_order_relaxed)) {
      *chunk = hi - 1;
      steals_.fetch_add(1, std::memory_order_relaxed);
      g_work_steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
}

}  // namespace sptd
