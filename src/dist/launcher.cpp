/// \file launcher.cpp
/// \brief Fork-per-locale launcher for the shm transport.
///
/// The parent never computes: it forks one child per locale over the
/// shared-memory ring, then monitors. Death detection is two-pronged:
/// waitpid(WNOHANG) catches a child that died (the injected SIGKILL, a
/// crash), and a stalled heartbeat counter catches a child that hung —
/// which the monitor escalates to SIGKILL, funneling both cases into one
/// recovery path: pick a rollback point (newest valid per-rank
/// checkpoint, any rank — the replicated loop makes them interchangeable),
/// publish it in the ring header, bump the recovery epoch (survivors'
/// waits throw RecoveryInterrupt and rejoin), and respawn the dead locale.
/// Replay is deterministic, so the recovered run's final model is
/// bitwise-identical to an uninjected run's.
///
/// Rank 0 ships its finished result to the parent as a checkpoint-format
/// file in a private temp dir (written before the completion barrier, so
/// the parent only reads it after every rank finished the same epoch).

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/error.hpp"
#include "common/fileio.hpp"
#include "common/log.hpp"
#include "cpd/als_loop.hpp"
#include "dist/internal.hpp"
#include "dist/recovery.hpp"
#include "dist/shm_ring.hpp"
#include "dist/transport_shm.hpp"
#include "resilience/checkpoint.hpp"

namespace sptd::dist {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kMaxRestarts = 8;
constexpr auto kPollInterval = std::chrono::milliseconds(2);

struct ChildSlot {
  pid_t pid = -1;
  bool running = false;
  std::uint64_t last_beat = 0;
  Clock::time_point last_change{};
};

struct MmapGuard {
  void* mem = nullptr;
  std::size_t len = 0;
  ~MmapGuard() {
    if (mem != nullptr) ::munmap(mem, len);
  }
};

struct TempDirGuard {
  std::string path;
  ~TempDirGuard() {
    if (!path.empty()) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
};

bool run_complete(ShmRing& ring, std::uint64_t finish_op) {
  const std::uint64_t e = ring.header().epoch.load(std::memory_order_acquire);
  const std::uint64_t t = ShmRing::tag(e, finish_op);
  for (std::size_t r = 0; r < ring.nranks(); ++r) {
    if (ring.finished(r).load(std::memory_order_acquire) != t) return false;
  }
  return true;
}

/// Writes the rollback point into the ring header. Must precede the epoch
/// bump (release) that makes it visible; readers re-check the epoch after
/// copying, so a concurrent read of a half-written path is discarded.
void publish_rollback(ShmRing& ring, const RollbackPlan& rb) {
  SPTD_CHECK(rb.checkpoint_path.size() < ShmRing::kPathMax,
             "dist shm: rollback checkpoint path too long for ring header");
  ShmRing::Header& h = ring.header();
  h.rollback_iter.store(rb.iteration, std::memory_order_relaxed);
  std::memset(h.rollback_path, 0, ShmRing::kPathMax);
  std::memcpy(h.rollback_path, rb.checkpoint_path.c_str(),
              rb.checkpoint_path.size());
  h.have_rollback.store(1, std::memory_order_release);
}

[[noreturn]] void child_main(ShmRing ring, Doorbells* bells,
                             std::size_t rank_id, const DistOptions& options,
                             DistPartition& part, const dims_t& dims,
                             val_t tensor_norm_sq, std::uint64_t finish_op,
                             const std::string& result_path) {
  int code = 0;
  try {
    ShmTransport tr(ring, rank_id, part.locale_nnz, finish_op,
                    options.comm_deadline_s, bells);
    LoopConfig cfg;
    cfg.options = &options;
    cfg.dims = &dims;
    cfg.tensor_norm_sq = tensor_norm_sq;
    cfg.part = &part;
    cfg.owned = {rank_id};
    cfg.checkpoint_kind = dist_rank_kind(rank_id);
    if (rank_id == 0) {
      cfg.on_complete = [&](const DistResult& res) {
        Checkpoint out;
        out.kind = "dist-result";
        out.iteration = res.iterations;
        detail::encode_model(res.model, res.fit_history, out);
        const CommMeasured& cm = tr.measured();
        out.set_scalar("reduce_bytes_measured",
                       static_cast<double>(cm.reduce_bytes));
        out.set_scalar("broadcast_bytes_measured",
                       static_cast<double>(cm.broadcast_bytes));
        out.set_scalar("reduce_seconds_measured", cm.reduce_seconds);
        out.set_scalar("broadcast_seconds_measured", cm.broadcast_seconds);
        const ResilienceCounters& rc = res.resilience;
        out.set_scalar("retries", rc.retries);
        out.set_scalar("rollbacks", rc.rollbacks);
        out.set_scalar("checkpoints", rc.checkpoints);
        out.set_scalar("checkpoint_failures", rc.checkpoint_failures);
        out.set_scalar("checkpoint_bytes",
                       static_cast<double>(rc.checkpoint_bytes));
        out.set_scalar("checkpoint_seconds", rc.checkpoint_seconds);
        out.set_scalar("faults_injected",
                       static_cast<double>(rc.faults_injected));
        out.set_scalar("gram_bumps", static_cast<double>(rc.gram_bumps));
        out.set_scalar("resumed_from", rc.resumed_from);
        atomic_write_file(result_path, out.serialize(),
                          RenameDurability::kRelaxed);
      };
    }
    run_dist_loop(cfg, tr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[dist shm] rank %zu (pid %d): fatal: %s\n",
                 rank_id, static_cast<int>(::getpid()), e.what());
    ring.header().abort.store(1, std::memory_order_release);
    if (bells != nullptr) bells->kick_all();
    code = 1;
  }
  std::fflush(nullptr);
  ::_exit(code);  // skip atexit/static destructors in the forked child
}

DistResult parse_result(const std::string& path, const DistOptions& options,
                        const DistPartition& part, const dims_t& dims) {
  std::optional<Checkpoint> ck = load_checkpoint_file(path);
  SPTD_CHECK(ck.has_value(), "dist shm: rank 0 produced no result file");
  SPTD_CHECK(ck->kind == "dist-result",
             "dist shm: unexpected result file kind '" + ck->kind + "'");
  DistResult res;
  detail::decode_model(*ck, dims, options.rank, res.model, res.fit_history);
  res.iterations = ck->iteration;
  res.locale_nnz = part.locale_nnz;
  res.comm = comm_after(options, dims, res.iterations);
  res.comm_measured.reduce_bytes =
      static_cast<std::uint64_t>(ck->scalar("reduce_bytes_measured", 0));
  res.comm_measured.broadcast_bytes =
      static_cast<std::uint64_t>(ck->scalar("broadcast_bytes_measured", 0));
  res.comm_measured.reduce_seconds = ck->scalar("reduce_seconds_measured", 0);
  res.comm_measured.broadcast_seconds =
      ck->scalar("broadcast_seconds_measured", 0);

  ResilienceCounters& rc = res.resilience;
  rc.retries = static_cast<int>(ck->scalar("retries", 0));
  rc.rollbacks = static_cast<int>(ck->scalar("rollbacks", 0));
  rc.checkpoints = static_cast<int>(ck->scalar("checkpoints", 0));
  rc.checkpoint_failures =
      static_cast<int>(ck->scalar("checkpoint_failures", 0));
  rc.checkpoint_bytes =
      static_cast<std::uint64_t>(ck->scalar("checkpoint_bytes", 0));
  rc.checkpoint_seconds = ck->scalar("checkpoint_seconds", 0);
  rc.faults_injected =
      static_cast<std::uint64_t>(ck->scalar("faults_injected", 0));
  rc.gram_bumps = static_cast<std::uint64_t>(ck->scalar("gram_bumps", 0));
  rc.resumed_from = static_cast<int>(ck->scalar("resumed_from", -1));
  return res;
}

}  // namespace

DistResult run_shm_dist(const SparseTensor& x, const DistOptions& options,
                        DistPartition& part) {
  const std::size_t nranks = part.nlocales;
  const dims_t& dims = x.dims();
  const int order = static_cast<int>(dims.size());
  const val_t tensor_norm_sq = x.norm_sq();
  const std::uint64_t finish_op = static_cast<std::uint64_t>(
                                      options.max_iterations) *
                                  static_cast<std::uint64_t>(order);
  SPTD_CHECK(finish_op < ShmRing::kMaxOp,
             "dist shm: iteration count exceeds the tag space");

  DistOptions childopts = options;
  // Resume is the launcher's job: the rollback preset below feeds every
  // child the same restore point through rejoin(), instead of each child
  // racing its own load_latest.
  childopts.resilience.resume = false;

  // Ring slots hold one mode's physical MTTKRP output (rows * padded
  // stride); size them for the largest mode.
  idx_t max_dim = 0;
  for (const idx_t d : dims) max_dim = std::max(max_dim, d);
  const la::Matrix probe(1, options.rank);
  const std::size_t slot_doubles =
      static_cast<std::size_t>(max_dim) * probe.ld();

  const std::size_t ring_bytes = ShmRing::bytes_needed(nranks, slot_doubles);
  void* mem = ::mmap(nullptr, ring_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  SPTD_CHECK(mem != MAP_FAILED, "dist shm: mmap of ring failed");
  MmapGuard mguard{mem, ring_bytes};
  ShmRing ring(mem, nranks, slot_doubles, /*init=*/true);
  Doorbells bells(nranks);

  if (options.resilience.resume) {
    SPTD_CHECK(!options.resilience.checkpoint_dir.empty(),
               "--resume requires --checkpoint-dir");
    const RollbackPlan rb =
        select_rollback(options.resilience.checkpoint_dir, nranks);
    if (!rb.checkpoint_path.empty()) {
      publish_rollback(ring, rb);
      log_info("resilience: resuming dist from iteration " +
               std::to_string(rb.iteration));
    } else {
      log_info("resilience: no valid dist checkpoint in " +
               options.resilience.checkpoint_dir + ", starting fresh");
    }
  }

  std::string tmpl =
      (fs::temp_directory_path() / "sptd-dist-XXXXXX").string();
  std::vector<char> tbuf(tmpl.begin(), tmpl.end());
  tbuf.push_back('\0');
  SPTD_CHECK(::mkdtemp(tbuf.data()) != nullptr,
             "dist shm: mkdtemp for result handoff failed");
  TempDirGuard tdir{std::string(tbuf.data())};
  const std::string result_path = tdir.path + "/result.ckpt";

  std::vector<ChildSlot> kids(nranks);
  auto spawn = [&](std::size_t r) {
    std::fflush(nullptr);  // no duplicated stdio buffers in the child
    const pid_t pid = ::fork();
    SPTD_CHECK(pid >= 0, "dist shm: fork failed");
    if (pid == 0) {
#ifdef __linux__
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // die with the launcher
#endif
      child_main(ring, &bells, r, childopts, part, dims, tensor_norm_sq,
                 finish_op, result_path);
    }
    kids[r].pid = pid;
    kids[r].running = true;
    kids[r].last_beat = ring.heartbeat(r).load(std::memory_order_relaxed);
    kids[r].last_change = Clock::now();
  };

  auto kill_all = [&] {
    for (ChildSlot& k : kids) {
      if (k.running && k.pid > 0) ::kill(k.pid, SIGKILL);
    }
    for (ChildSlot& k : kids) {
      if (!k.running || k.pid <= 0) continue;
      int st = 0;
      ::waitpid(k.pid, &st, 0);
      k.running = false;
    }
  };

  for (std::size_t r = 0; r < nranks; ++r) spawn(r);

  int restarts = 0;
  try {
    for (;;) {
      if (ring.header().abort.load(std::memory_order_acquire) != 0) {
        kill_all();
        throw Error(
            "dist shm: a rank reported a fatal error (see its log line "
            "above)");
      }
      if (run_complete(ring, finish_op)) break;

      bool any_running = false;
      for (std::size_t r = 0; r < nranks; ++r) {
        ChildSlot& k = kids[r];
        if (!k.running) continue;
        int st = 0;
        const pid_t w = ::waitpid(k.pid, &st, WNOHANG);
        if (w == k.pid) {
          k.running = false;
          if (WIFEXITED(st)) {
            if (WEXITSTATUS(st) == 0) continue;  // done, post-barrier
            kill_all();
            throw Error("dist shm: rank " + std::to_string(r) +
                        " exited with status " +
                        std::to_string(WEXITSTATUS(st)));
          }
          // Signaled: the injected SIGKILL, a crash, or our hang-kill
          // below. Recover: rollback point -> header -> epoch bump ->
          // respawn; survivors' waits observe the bump and rejoin.
          ++restarts;
          if (restarts > kMaxRestarts) {
            kill_all();
            throw Error("dist shm: rank restart budget exhausted (" +
                        std::to_string(kMaxRestarts) + ")");
          }
          RollbackPlan rb;
          if (!options.resilience.checkpoint_dir.empty()) {
            rb = select_rollback(options.resilience.checkpoint_dir, nranks);
          }
          ring.header().restarts.fetch_add(1, std::memory_order_relaxed);
          publish_rollback(ring, rb);
          ring.header().epoch.fetch_add(1, std::memory_order_release);
          bells.kick_all();
          log_warn("[resilience] dist shm: rank " + std::to_string(r) +
                   " died (signal " + std::to_string(WTERMSIG(st)) +
                   "); restarted locale " + std::to_string(r) +
                   ", rolling everyone back to iteration " +
                   std::to_string(rb.iteration));
          spawn(r);
          any_running = true;
        } else {
          any_running = true;
          const std::uint64_t hb =
              ring.heartbeat(r).load(std::memory_order_relaxed);
          if (hb != k.last_beat) {
            k.last_beat = hb;
            k.last_change = Clock::now();
          } else if (std::chrono::duration<double>(Clock::now() -
                                                   k.last_change)
                         .count() > options.heartbeat_timeout_s) {
            log_warn("dist shm: rank " + std::to_string(r) +
                     " heartbeat stalled for " +
                     std::to_string(options.heartbeat_timeout_s) +
                     "s; killing it into recovery");
            ::kill(k.pid, SIGKILL);
            k.last_change = Clock::now();  // one kill per stall window
          }
        }
      }
      if (!any_running) {
        if (run_complete(ring, finish_op)) break;
        kill_all();
        throw Error("dist shm: all ranks exited but the run never "
                    "completed");
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  } catch (...) {
    kill_all();
    throw;
  }

  // Post-barrier teardown is just _exit; give stragglers a grace window.
  const auto reap_deadline = Clock::now() + std::chrono::seconds(10);
  for (ChildSlot& k : kids) {
    while (k.running) {
      int st = 0;
      const pid_t w = ::waitpid(k.pid, &st, WNOHANG);
      if (w == k.pid) {
        k.running = false;
        break;
      }
      if (Clock::now() > reap_deadline) {
        ::kill(k.pid, SIGKILL);
        ::waitpid(k.pid, &st, 0);
        k.running = false;
        break;
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  }

  DistResult res = parse_result(result_path, options, part, dims);
  res.resilience.locale_restarts += static_cast<int>(
      ring.header().restarts.load(std::memory_order_relaxed));
  if (ring.header().kill_token.load(std::memory_order_relaxed) != 0) {
    // The rank-kill fired (the victim claimed the token before raising
    // SIGKILL); count it here — the predicate on the rank side is
    // deliberately non-mutating so a respawned victim can't double-count.
    res.resilience.faults_injected += 1;
  }
  return res;
}

}  // namespace sptd::dist
