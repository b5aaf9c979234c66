#include "parallel/locks.hpp"

#include "parallel/backend.hpp"

namespace sptd {

LockKind parse_lock_kind(const std::string& name) {
  if (name == "sync") return LockKind::kSync;
  if (name == "atomic") return LockKind::kAtomic;
  if (name == "fifo-sync" || name == "fifo") return LockKind::kFifoSync;
  if (name == "omp") return LockKind::kOmp;
  throw Error("unknown lock kind '" + name +
              "' (expected sync|atomic|fifo-sync|omp)");
}

const char* lock_kind_name(LockKind kind) {
  switch (kind) {
    case LockKind::kSync:     return "sync";
    case LockKind::kAtomic:   return "atomic";
    case LockKind::kFifoSync: return "fifo-sync";
    case LockKind::kOmp:      return "omp";
  }
  return "?";
}

AnyMutexPool::Pool AnyMutexPool::make_pool(LockKind kind) {
  switch (kind) {
    case LockKind::kSync:     return MutexPool<SyncVarLock>();
    case LockKind::kAtomic:   return MutexPool<AtomicSpinLock>();
    case LockKind::kFifoSync: return MutexPool<FifoSyncLock>();
    case LockKind::kOmp:      break;
  }
  if (parallel_backend() == ParallelBackendKind::kOmp) {
    return MutexPool<OmpLock>();
  }
  return MutexPool<FutexLock>();
}

AnyMutexPool::AnyMutexPool(LockKind kind)
    : kind_(kind), pool_(make_pool(kind)) {}

void AnyMutexPool::lock(idx_t id) {
  std::visit([id](auto& pool) { pool.lock(id); }, pool_);
}

void AnyMutexPool::unlock(idx_t id) {
  std::visit([id](auto& pool) { pool.unlock(id); }, pool_);
}

}  // namespace sptd
