/// \file sptd_cli.cpp
/// \brief The `sptd` command-line tool — the analogue of the `splatt`
///        executable that SPLATT ships. Subcommands:
///
///   sptd stats <tensor.tns|.bin>          tensor statistics (Table I row)
///   sptd validate <tensor>                structural checks
///   sptd convert <in> <out>               .tns <-> .bin by extension
///   sptd generate <out.tns> [--preset ... --scale ...]
///   sptd cpd <tensor> [--rank ... --iters ... --threads ... --impl ...]
///   sptd tucker <tensor> [--core ... --iters ...]
///   sptd complete <tensor> [--alg als|sgd|ccd --rank ... --holdout ...]
///
/// Every subcommand takes --help.

#include <cstdio>
#include <cstring>
#include <string>

#include "sptd.hpp"

namespace {

using namespace sptd;

/// Refuses bad command-line input with the message alone; SPTD_CHECK is
/// for programmer errors and also prints the expression and source line.
void require(bool ok, const std::string& message) {
  if (!ok) {
    throw Error(message);
  }
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

SparseTensor load(const std::string& path, bool skip_bad_lines = false) {
  if (ends_with(path, ".bin")) {
    return read_bin_file(path);
  }
  TnsReadOptions ropts;
  ropts.skip_bad_lines = skip_bad_lines;
  TnsReadStats stats;
  SparseTensor t = read_tns_file(path, ropts, &stats);
  if (stats.dropped > 0) {
    std::fprintf(stderr,
                 "warning: dropped %llu malformed line%s from %s "
                 "(first: %s)\n",
                 static_cast<unsigned long long>(stats.dropped),
                 stats.dropped == 1 ? "" : "s", path.c_str(),
                 stats.first_error.c_str());
  }
  return t;
}

void store(const SparseTensor& t, const std::string& path) {
  if (ends_with(path, ".bin")) {
    write_bin_file(t, path);
  } else {
    write_tns_file(t, path);
  }
}

/// The --kernels choice as use_fixed_kernels; any value but fixed|generic
/// is refused.
bool fixed_kernels_from_flag(const Options& cli, const char* cmd) {
  const std::string k = cli.get_string("kernels");
  require(k == "fixed" || k == "generic",
          std::string(cmd) + ": --kernels must be fixed|generic");
  return k == "fixed";
}

/// The --schedule choice; an unknown policy name is refused naming the
/// flag.
SchedulePolicy schedule_from_flag(const Options& cli) {
  try {
    return parse_schedule_policy(cli.get_string("schedule"));
  } catch (const Error& e) {
    throw Error(std::string("--schedule: ") + e.what());
  }
}

int cmd_stats(int argc, const char* const* argv) {
  Options cli("sptd stats", "print tensor statistics");
  cli.add("csf", "two", "CSF policy for the storage report: one|two|all");
  cli.add_flag("no-csf", "skip the CSF storage report (skips the sort)");
  if (!cli.parse(argc, argv)) return 0;
  require(!cli.positional().empty(), "stats: need a tensor file");
  const SparseTensor t = load(cli.positional().front());
  const TensorStats s = compute_stats(t);
  std::printf("file:      %s\n", cli.positional().front().c_str());
  std::printf("order:     %d\n", t.order());
  std::printf("dims:      %s\n", format_dims(s.dims).c_str());
  std::printf("nnz:       %llu\n",
              static_cast<unsigned long long>(s.nnz));
  std::printf("density:   %.3e\n", s.density);
  std::printf("tns size:  ~%s\n", format_bytes(s.tns_bytes).c_str());
  for (std::size_t m = 0; m < s.modes.size(); ++m) {
    const ModeStats& ms = s.modes[m];
    std::printf("mode %zu:    dim %u, nonempty %u, max slice %llu, "
                "avg slice %.1f\n",
                m, static_cast<unsigned>(ms.dim),
                static_cast<unsigned>(ms.nonempty),
                static_cast<unsigned long long>(ms.max_slice_nnz),
                ms.avg_slice_nnz);
  }
  if (cli.get_bool("no-csf")) {
    return 0;
  }

  // CSF storage report: per-level index widths and bytes under the
  // compressed layout, with the wide layout's total for comparison —
  // derived arithmetically (same fiber counts, fixed u32/u64 widths)
  // rather than paying a second sort + build.
  const CsfPolicy policy = parse_csf_policy(cli.get_string("csf"));
  const int nthreads = hardware_threads();
  SparseTensor work = t;
  const CsfSet set(work, policy, nthreads, nullptr, SortVariant::kAllOpts,
                   CsfLayout::kCompressed);
  const CsfSetStats cs = compute_csf_stats(set);
  std::uint64_t wide_total = 0;
  for (const CsfRepStats& rep : cs.reps) {
    // vals + root prefix are width-independent.
    wide_total += rep.total_bytes - rep.index_bytes;
    for (const CsfLevelStats& ls : rep.levels) {
      wide_total += ls.nfibers * sizeof(idx_t);
      if (ls.ptr_width > 0) {
        wide_total += (ls.nfibers + 1) * sizeof(nnz_t);
      }
    }
  }
  std::printf("csf (%s policy, compressed layout):\n",
              csf_policy_name(policy));
  for (const CsfRepStats& rep : cs.reps) {
    std::printf("  rep root mode %d: %s (index %s)\n", rep.root_mode,
                format_bytes(rep.total_bytes).c_str(),
                format_bytes(rep.index_bytes).c_str());
    for (const CsfLevelStats& ls : rep.levels) {
      if (ls.ptr_width > 0) {
        std::printf("    level %d (mode %d): %llu fibers, fids u%d "
                    "(%s), fptr u%d (%s)\n",
                    ls.level, ls.mode,
                    static_cast<unsigned long long>(ls.nfibers),
                    8 * ls.fid_width, format_bytes(ls.fid_bytes).c_str(),
                    8 * ls.ptr_width, format_bytes(ls.ptr_bytes).c_str());
      } else {
        std::printf("    level %d (mode %d): %llu leaves, fids u%d (%s)\n",
                    ls.level, ls.mode,
                    static_cast<unsigned long long>(ls.nfibers),
                    8 * ls.fid_width, format_bytes(ls.fid_bytes).c_str());
      }
    }
  }
  std::printf("  csf bytes: %s compressed vs %s wide (%.2fx)\n",
              format_bytes(cs.total_bytes).c_str(),
              format_bytes(wide_total).c_str(),
              cs.total_bytes > 0
                  ? static_cast<double>(wide_total) /
                        static_cast<double>(cs.total_bytes)
                  : 0.0);
  // Value-stream bytes per MTTKRP launch under each precision: the other
  // half of the bandwidth story once the index stream is compressed
  // (f32 and mixed both stream 4-byte values).
  const std::uint64_t v64 = set.value_bytes(Precision::kF64);
  const std::uint64_t v32 = set.value_bytes(Precision::kMixed);
  std::printf("  value bytes: %s f64 vs %s f32/mixed (%.2fx)\n",
              format_bytes(v64).c_str(), format_bytes(v32).c_str(),
              v32 > 0 ? static_cast<double>(v64) /
                            static_cast<double>(v32)
                      : 0.0);
  return 0;
}

int cmd_validate(int argc, const char* const* argv) {
  Options cli("sptd validate",
              "check a tensor file for structural problems");
  cli.add_flag("skip-bad-lines",
               "drop malformed .tns lines (counted) instead of failing");
  if (!cli.parse(argc, argv)) return 0;
  require(!cli.positional().empty(), "validate: need a tensor file");
  const SparseTensor t =
      load(cli.positional().front(), cli.get_bool("skip-bad-lines"));
  t.validate();  // throws on out-of-range indices / non-finite values

  // Duplicate coordinates (legal but usually an upstream bug): any
  // lexicographic order puts them next to each other.
  SparseTensor sorted = t;
  const std::vector<int> perm = sort_mode_order(sorted.order(), 0);
  stable_sort_perm(sorted, perm, hardware_threads());
  nnz_t duplicates = 0;
  for (nnz_t x = 1; x < sorted.nnz(); ++x) {
    bool same = true;
    for (const int m : perm) {
      if (sorted.ind(m)[x] != sorted.ind(m)[x - 1]) {
        same = false;
        break;
      }
    }
    if (same) ++duplicates;
  }
  // Empty slices inflate dims and distort the lock heuristic.
  nnz_t empty_slices = 0;
  const TensorStats s = compute_stats(t);
  for (const auto& ms : s.modes) {
    empty_slices += ms.dim - ms.nonempty;
  }
  std::printf("ok: %llu nonzeros, %d modes\n",
              static_cast<unsigned long long>(t.nnz()), t.order());
  std::printf("duplicate coordinates: %llu%s\n",
              static_cast<unsigned long long>(duplicates),
              duplicates ? "  (consider deduplicating)" : "");
  std::printf("empty slices: %llu%s\n",
              static_cast<unsigned long long>(empty_slices),
              empty_slices
                  ? "  (frostt_decompose --remove-empty compacts them)"
                  : "");
  return 0;
}

int cmd_convert(int argc, const char* const* argv) {
  Options cli("sptd convert", "convert between .tns and .bin");
  cli.add_flag("skip-bad-lines",
               "drop malformed .tns lines (counted) instead of failing");
  if (!cli.parse(argc, argv)) return 0;
  require(cli.positional().size() == 2, "convert: need <input> <output>");
  const SparseTensor t =
      load(cli.positional()[0], cli.get_bool("skip-bad-lines"));
  store(t, cli.positional()[1]);
  std::printf("wrote %llu nonzeros to %s\n",
              static_cast<unsigned long long>(t.nnz()),
              cli.positional()[1].c_str());
  return 0;
}

int cmd_generate(int argc, const char* const* argv) {
  Options cli("sptd generate", "synthesize a dataset-preset tensor");
  cli.add("preset", "yelp", "Table I preset");
  cli.add("scale", "0.01", "preset scale");
  cli.add("seed", "42", "generator seed");
  if (!cli.parse(argc, argv)) return 0;
  require(!cli.positional().empty(), "generate: need an output file");
  const auto cfg = find_preset(cli.get_string("preset"))
                       .scaled(cli.get_double("scale"),
                               static_cast<std::uint64_t>(
                                   cli.get_int("seed")));
  const SparseTensor t = generate_synthetic(cfg);
  store(t, cli.positional().front());
  std::printf("generated %s at scale %g -> %s (%llu nnz)\n",
              cli.get_string("preset").c_str(), cli.get_double("scale"),
              cli.positional().front().c_str(),
              static_cast<unsigned long long>(t.nnz()));
  return 0;
}

int cmd_cpd(int argc, const char* const* argv) {
  Options cli("sptd cpd", "CP-ALS decomposition");
  cli.add("rank", "35", "decomposition rank");
  cli.add("iters", "20", "max iterations");
  cli.add("tolerance", "1e-5", "stopping tolerance");
  cli.add("threads", "0", "threads (0 = all)");
  cli.add("impl", "c", "c|chapel-initial|chapel-optimize");
  cli.add("csf", "two", "CSF policy one|two|all");
  cli.add("csf-layout", "compressed",
          "CSF index widths: compressed (narrowest per level) | wide");
  cli.add("schedule", "weighted",
          "slice scheduling policy weighted|workstealing");
  cli.add("chunk", "16",
          "workstealing chunk target (claims per thread)");
  cli.add("kernels", "fixed",
          "inner-loop variant: fixed (rank-specialized SIMD) | generic");
  cli.add("precision", "f64",
          "value-stream precision: f64 | f32 | mixed (fp32 streams, "
          "fp64 accumulation)");
  cli.add("seed", "23", "init seed");
  cli.add("backend", parallel_backend_name(default_parallel_backend()),
          "parallel backend: omp | pool (persistent std::thread "
          "workers; composes across concurrent runs)");
  cli.add("output", "", "write the Kruskal model to this path");
  cli.add("dist-grid", "",
          "locale grid extents per mode (e.g. 2,2,1): run the "
          "medium-grained distributed driver instead of shared-memory "
          "CP-ALS");
  cli.add("transport", "sim",
          "distributed communication backend: sim (in-process "
          "simulation) | shm (fork-per-locale, real processes) | mpi "
          "(requires an MPI build)");
  cli.add_flag("nonneg", "non-negative CP");
  add_resilience_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  require(!cli.positional().empty(), "cpd: need a tensor file");
  SparseTensor t = load(cli.positional().front());

  if (!cli.get_string("dist-grid").empty()) {
    // The distributed driver runs a fixed iteration count on one thread
    // per locale with the c implementation's two-mode CSF and no
    // non-negativity; refuse these flags rather than ignore them.
    for (const char* flag : {"tolerance", "threads", "impl", "csf", "nonneg"}) {
      if (cli.given(flag)) {
        throw Error(std::string("cpd: --") + flag +
                    " does not apply with --dist-grid");
      }
    }
    DistOptions dopts;
    for (const int g : cli.get_int_list("dist-grid")) {
      require(g >= 1, "cpd: --dist-grid extents must be >= 1");
      dopts.grid.push_back(static_cast<idx_t>(g));
    }
    dopts.rank = static_cast<idx_t>(cli.get_int_at_least("rank", 1));
    dopts.max_iterations = cli.get_int_at_least("iters", 1);
    dopts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    dopts.schedule = schedule_from_flag(cli);
    dopts.chunk_target = cli.get_int_at_least("chunk", 1);
    dopts.use_fixed_kernels = fixed_kernels_from_flag(cli, "cpd");
    dopts.csf_layout = parse_csf_layout(cli.get_string("csf-layout"));
    dopts.precision = parse_precision(cli.get_string("precision"));
    dopts.backend = parse_parallel_backend(cli.get_string("backend"));
    dopts.transport = parse_transport(cli.get_string("transport"));
    dopts.resilience = resilience_from_flags(cli);
    const DistResult r = dist_cp_als(t, dopts);
    // Under mpi every rank runs this path; only rank 0 reports.
    if (dopts.transport == TransportKind::kMpi && mpi_world_rank() != 0) {
      return 0;
    }
    std::printf("fit %.6f after %d iterations (%s transport, %zu "
                "locales)\n",
                r.fit_history.back(), r.iterations,
                transport_name(dopts.transport), r.locale_nnz.size());
    std::printf("  comm model %s", format_bytes(r.comm.total()).c_str());
    if (r.comm_measured.total_bytes() > 0) {
      std::printf(", measured %s (reduce %.3fs, broadcast %.3fs)",
                  format_bytes(r.comm_measured.total_bytes()).c_str(),
                  r.comm_measured.reduce_seconds,
                  r.comm_measured.broadcast_seconds);
    }
    std::printf("\n");
    if (const std::string rs = resilience_summary(r.resilience);
        !rs.empty()) {
      std::printf("  %s\n", rs.c_str());
    }
    if (const std::string out = cli.get_string("output"); !out.empty()) {
      write_model_file(r.model, out);
      std::printf("model written to %s\n", out.c_str());
    }
    return 0;
  }

  CpalsOptions opts;
  opts.rank = static_cast<idx_t>(cli.get_int_at_least("rank", 1));
  opts.max_iterations = cli.get_int_at_least("iters", 1);
  opts.tolerance = cli.get_double("tolerance");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opts.nthreads = cli.get_int_at_least("threads", 0);
  if (opts.nthreads == 0) opts.nthreads = hardware_threads();
  opts.csf_policy = parse_csf_policy(cli.get_string("csf"));
  opts.csf_layout = parse_csf_layout(cli.get_string("csf-layout"));
  opts.schedule = schedule_from_flag(cli);
  opts.chunk_target = cli.get_int_at_least("chunk", 1);
  opts.use_fixed_kernels = fixed_kernels_from_flag(cli, "cpd");
  opts.nonnegative = cli.get_bool("nonneg");
  opts.precision = parse_precision(cli.get_string("precision"));
  opts.backend = parse_parallel_backend(cli.get_string("backend"));
  opts.resilience = resilience_from_flags(cli);
  apply_impl_variant(find_impl_variant(cli.get_string("impl")), opts);

  const std::uint64_t steals_before = work_steal_count();
  const CpalsResult r = cp_als(t, opts);
  std::printf("fit %.6f after %d iterations\n", r.fit_history.back(),
              r.iterations);
  for (int i = 0; i < kNumRoutines; ++i) {
    const auto routine = static_cast<Routine>(i);
    std::printf("  %-9s %8.4f s\n", routine_name(routine),
                r.timers.seconds(routine));
  }
  if (opts.schedule == SchedulePolicy::kWorkStealing) {
    std::printf("  steals    %8llu\n",
                static_cast<unsigned long long>(work_steal_count() -
                                                steals_before));
  }
  std::printf("  csf %s, value stream %s per MTTKRP launch (%s)\n",
              format_bytes(r.csf_bytes).c_str(),
              format_bytes(r.value_bytes).c_str(),
              precision_name(opts.precision));
  if (const std::string rs = resilience_summary(r.resilience);
      !rs.empty()) {
    std::printf("  %s\n", rs.c_str());
  }
  if (const std::string out = cli.get_string("output"); !out.empty()) {
    write_model_file(r.model, out);
    std::printf("model written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_tucker(int argc, const char* const* argv) {
  Options cli("sptd tucker", "Tucker decomposition (HOOI)");
  cli.add("core", "8x8x8", "core dimensions, e.g. 8x8x8");
  cli.add("iters", "50", "max iterations");
  cli.add("tolerance", "1e-5", "stopping tolerance");
  cli.add("threads", "0", "threads (0 = all)");
  cli.add("csf-layout", "compressed",
          "CSF index widths: compressed (narrowest per level) | wide");
  cli.add("schedule", "weighted",
          "slice scheduling policy weighted|workstealing");
  cli.add("precision", "f64",
          "value-stream precision: f64 | f32 | mixed (fp32 streams, "
          "fp64 accumulation)");
  cli.add("seed", "17", "init seed");
  cli.add("backend", parallel_backend_name(default_parallel_backend()),
          "parallel backend: omp | pool (persistent std::thread "
          "workers; composes across concurrent runs)");
  add_resilience_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  require(!cli.positional().empty(), "tucker: need a tensor file");
  const SparseTensor t = load(cli.positional().front());

  TuckerOptions opts;
  for (const int extent : cli.get_int_list("core", 'x')) {
    require(extent >= 1, "tucker: --core extents must be >= 1");
    opts.core_dims.push_back(static_cast<idx_t>(extent));
  }
  opts.max_iterations = cli.get_int_at_least("iters", 1);
  opts.tolerance = cli.get_double("tolerance");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opts.nthreads = cli.get_int_at_least("threads", 0);
  if (opts.nthreads == 0) opts.nthreads = hardware_threads();
  opts.csf_layout = parse_csf_layout(cli.get_string("csf-layout"));
  opts.schedule = schedule_from_flag(cli);
  opts.precision = parse_precision(cli.get_string("precision"));
  opts.backend = parse_parallel_backend(cli.get_string("backend"));
  opts.resilience = resilience_from_flags(cli);

  const TuckerResult r = tucker_hooi(t, opts);
  std::printf("fit %.6f after %d iterations (core %s)\n",
              r.fit_history.back(), r.iterations,
              cli.get_string("core").c_str());
  if (const std::string rs = resilience_summary(r.resilience);
      !rs.empty()) {
    std::printf("  %s\n", rs.c_str());
  }
  return 0;
}

int cmd_complete(int argc, const char* const* argv) {
  Options cli("sptd complete", "tensor completion (missing values)");
  cli.add("alg", "als", "solver: als|sgd|ccd");
  cli.add("rank", "10", "model rank");
  cli.add("iters", "30", "max iterations");
  cli.add("holdout", "0.2", "fraction held out for validation");
  cli.add("reg", "1e-2", "regularization");
  cli.add("lr", "0.02", "SGD learning rate");
  cli.add("decay", "0.01",
          "SGD learning-rate decay: lr / (1 + decay * epoch)");
  cli.add("threads", "0", "threads (0 = all)");
  cli.add("schedule", "weighted",
          "slice scheduling policy weighted|workstealing");
  cli.add("chunk", "16",
          "workstealing chunk target (claims per thread)");
  cli.add("kernels", "fixed",
          "inner-loop variant: fixed (rank-specialized SIMD) | generic");
  cli.add("precision", "f64",
          "value-stream precision: f64 | f32 | mixed (fp32 value reads, "
          "fp64 updates)");
  cli.add("seed", "23", "seed");
  cli.add("backend", parallel_backend_name(default_parallel_backend()),
          "parallel backend: omp | pool (persistent std::thread "
          "workers; composes across concurrent runs)");
  add_resilience_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  require(!cli.positional().empty(), "complete: need a tensor file");
  const SparseTensor t = load(cli.positional().front());
  const auto [train, test] = split_train_test(
      t, cli.get_double("holdout"),
      static_cast<std::uint64_t>(cli.get_int("seed")));

  CompletionOptions opts;
  opts.algorithm = parse_completion_algorithm(cli.get_string("alg"));
  opts.rank = static_cast<idx_t>(cli.get_int_at_least("rank", 1));
  opts.max_iterations = cli.get_int_at_least("iters", 1);
  opts.regularization = cli.get_double("reg");
  opts.learn_rate = cli.get_double("lr");
  opts.decay = cli.get_double("decay");
  opts.nthreads = cli.get_int_at_least("threads", 0);
  if (opts.nthreads == 0) opts.nthreads = hardware_threads();
  opts.schedule = schedule_from_flag(cli);
  opts.chunk_target = cli.get_int_at_least("chunk", 1);
  opts.use_fixed_kernels = fixed_kernels_from_flag(cli, "complete");
  opts.precision = parse_precision(cli.get_string("precision"));
  opts.backend = parse_parallel_backend(cli.get_string("backend"));
  opts.resilience = resilience_from_flags(cli);
  const std::uint64_t steals_before = work_steal_count();
  const CompletionResult r = complete_tensor(train, &test, opts);
  if (r.val_rmse.empty()) {
    // The slice-aware split returns every entry of a fully-held-out slice
    // to the train side; a tensor of single-entry slices therefore ends
    // up with an empty holdout at ANY fraction.
    std::printf("%s: train RMSE %.4f after %d iterations (holdout empty "
                "after the slice-aware split; no validation)\n",
                completion_algorithm_name(opts.algorithm),
                r.train_rmse.back(), r.iterations);
  } else {
    std::printf("%s: train RMSE %.4f, holdout RMSE %.4f after %d "
                "iterations (best model from iteration %d)\n",
                completion_algorithm_name(opts.algorithm),
                r.train_rmse.back(), r.val_rmse.back(), r.iterations,
                r.best_iteration);
  }
  if (opts.schedule == SchedulePolicy::kWorkStealing) {
    std::printf("  steals    %8llu\n",
                static_cast<unsigned long long>(work_steal_count() -
                                                steals_before));
  }
  if (const std::string rs = resilience_summary(r.resilience);
      !rs.empty()) {
    std::printf("  %s\n", rs.c_str());
  }
  return 0;
}

void usage() {
  std::fputs(
      "usage: sptd <command> [options]\n"
      "commands:\n"
      "  stats     print tensor statistics\n"
      "  validate  check a tensor file for structural problems\n"
      "  convert   convert between .tns and .bin\n"
      "  generate  synthesize a Table I preset tensor\n"
      "  cpd       CP-ALS decomposition\n"
      "  tucker    Tucker decomposition (HOOI)\n"
      "  complete  tensor completion (als|sgd|ccd) with a validation "
      "holdout\n"
      "each command accepts --help\n",
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  // Shift argv so each handler sees its own program name + options.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (cmd == "stats") return cmd_stats(sub_argc, sub_argv);
    if (cmd == "validate") return cmd_validate(sub_argc, sub_argv);
    if (cmd == "convert") return cmd_convert(sub_argc, sub_argv);
    if (cmd == "generate") return cmd_generate(sub_argc, sub_argv);
    if (cmd == "cpd") return cmd_cpd(sub_argc, sub_argv);
    if (cmd == "tucker") return cmd_tucker(sub_argc, sub_argv);
    if (cmd == "complete") return cmd_complete(sub_argc, sub_argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      usage();
      return 0;
    }
    std::fprintf(stderr, "sptd: unknown command '%s'\n", cmd.c_str());
    usage();
    return 1;
  } catch (const sptd::Error& e) {
    std::fprintf(stderr, "sptd %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
