/// \file perfbench_cpd.cpp
/// \brief The measured program of the end-to-end CP-ALS benchmark.
///
///   perfbench_cpd --input <t.bin|t.tns> --model <out> --rank R --iters I
///                 --threads T --precision f64|mixed [--trace --spans <f>]
///
/// Runs what `sptd cpd --tolerance 0 --output <out>` runs, through the same
/// public calls in the same order: read_bin_file/read_tns_file -> norm ->
/// CsfSet (sort + CSF build) -> cp_als_csf -> write_model_file. It then
/// reads the model back (checksum verified) and compares it with the model
/// in memory. Prints one JSON object on stdout.
///
/// With --trace the same pipeline runs with spans around every public call,
/// then replays steady-state ALS sweeps over an MttkrpPlan and the la::
/// routines on the run's own factors, so each layer is timed from outside
/// the library. The replay also gives the exact counts (allocations and
/// planning calls per sweep, computed bytes) and is checked against the
/// mttkrp_coo oracle. Spans are kept in memory and written to --spans at
/// exit.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "sptd.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every C++ heap allocation in this process goes
// through these replacements. libgomp's own mallocs are not counted.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    if (n > SIZE_MAX - align) throw std::bad_alloc();
    n = (n + align - 1) / align * align;  // aligned_alloc needs a multiple
    p = std::aligned_alloc(align, n);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace sptd;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span list: name, parent index, start/end relative to the
/// tracer's epoch. Written out once, when the program ends. Storage is
/// reserved up front and names are literals, so recording a span never
/// allocates (the replay's allocation count stays the library's own).
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  Tracer() {
    spans_.reserve(kMaxSpans);
    stack_.reserve(16);
  }

  /// Opens a span under the innermost open one.
  void open(const char* name) {
    SPTD_CHECK(spans_.size() < kMaxSpans, "Tracer: span storage exhausted");
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, now(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost open span; returns its duration in seconds.
  double close() {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end = now();
    return s.end - s.start;
  }

  /// Times \p fn as one span named \p name; returns its duration.
  template <typename F>
  double span(const char* name, F&& fn) {
    open(name);
    fn();
    return close();
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(12);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"start_s\": " << s.start
          << ", \"end_s\": " << s.end << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  static constexpr std::size_t kMaxSpans = 1 << 16;

  double now() const { return seconds_between(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The options `sptd cpd` builds from the same flags (impl "c", the CLI's
/// defaults otherwise), with --tolerance 0.
CpalsOptions cpd_options(idx_t rank, int iters, int threads, Precision p) {
  CpalsOptions opts;
  opts.rank = rank;
  opts.max_iterations = iters;
  opts.tolerance = 0.0;
  opts.seed = 23;
  opts.nthreads = threads;
  opts.precision = p;
  apply_impl_variant(find_impl_variant("c"), opts);
  return opts;
}

/// The MttkrpOptions cp_als_csf derives from its CpalsOptions.
MttkrpOptions mttkrp_options(const CpalsOptions& o) {
  MttkrpOptions m;
  m.nthreads = o.nthreads;
  m.row_access = o.row_access;
  m.lock_kind = o.lock_kind;
  m.schedule = o.schedule;
  m.chunk_target = o.chunk_target;
  m.privatization_threshold = o.privatization_threshold;
  m.force_locks = o.force_locks;
  m.allow_privatization = o.allow_privatization;
  m.use_fixed_kernels = o.use_fixed_kernels;
  m.csf_layout = o.csf_layout;
  m.precision = o.precision;
  m.backend = o.backend;
  return m;
}

bool models_equal(const KruskalModel& a, const KruskalModel& b) {
  if (a.lambda != b.lambda || a.factors.size() != b.factors.size()) {
    return false;
  }
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    const la::Matrix& x = a.factors[m];
    const la::Matrix& y = b.factors[m];
    if (x.rows() != y.rows() || x.cols() != y.cols() ||
        x.max_abs_diff(y) != 0.0) {
      return false;
    }
  }
  return true;
}

/// Compulsory bytes of one mode's MTTKRP computed from array sizes: the
/// serving CSF's index and value streams, every input factor read once at
/// the stream width, and the output written once. Ignores cache misses.
std::uint64_t mttkrp_bytes_computed(const CsfSet& set, int mode, idx_t rank,
                                    Precision p) {
  int level = 0;
  const CsfTensor& csf = set.csf_for_mode(mode, level);
  std::uint64_t bytes = csf.index_bytes() + csf.value_bytes(p);
  const dims_t& dims = csf.dims();
  for (int n = 0; n < csf.order(); ++n) {
    const std::uint64_t row = static_cast<std::uint64_t>(rank) *
                              (n == mode ? sizeof(val_t)
                                         : precision_value_width(p));
    bytes += dims[static_cast<std::size_t>(n)] * row;
  }
  return bytes;
}

/// Mean microseconds per empty parallel_region launch at \p nthreads
/// (median of several batches).
double region_launch_us(int nthreads) {
  constexpr int kBatch = 2000;
  std::vector<double> per_launch;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      parallel_region(nthreads, [](int, int) {});
    }
    per_launch.push_back(seconds_between(t0, Clock::now()) * 1e6 / kBatch);
  }
  return median(per_launch);
}

struct Args {
  std::string input;
  std::string model;
  std::string spans;
  idx_t rank = 35;
  int iters = 10;
  int threads = 1;
  Precision precision = Precision::kF64;
  bool trace = false;
};

/// JSON writer for one flat object of numbers/booleans/strings.
class JsonOut {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    add(key, std::to_string(v));
  }
  void flag(const std::string& key, bool v) { add(key, v ? "true" : "false"); }
  void str(const std::string& key, const std::string& v) {
    add(key, '"' + v + '"');
  }
  [[nodiscard]] std::string text() const { return '{' + body_ + '}'; }

 private:
  void add(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
    body_ += v;
  }
  std::string body_;
};

/// Replays steady-state ALS sweeps exactly as cp_als_csf's loop body runs
/// them (max-norm normalization, as on every iteration after the first),
/// timing each public call as a span, and records the per-layer metrics.
/// Runs one warm-up sweep, then as many sweeps as the run had iterations.
void replay(const CpalsOptions& opts, const CsfSet& set,
            const SparseTensor& coo, val_t norm_sq, const KruskalModel& run,
            Tracer& tr, JsonOut& out) {
  const int order = set.order();
  SPTD_CHECK(order <= 4, "perfbench_cpd: replay supports order <= 4");
  const dims_t& dims = set.csfs().front().dims();
  const int last = order - 1;
  const idx_t rank = opts.rank;
  const int nt = opts.nthreads;
  const MttkrpOptions mopts = mttkrp_options(opts);

  tr.open("replay");
  std::unique_ptr<MttkrpPlan> plan;
  const double plan_s = tr.span("mttkrp.plan", [&] {
    plan = std::make_unique<MttkrpPlan>(set, rank, mopts);
  });

  std::vector<la::Matrix> factors = run.factors;
  std::vector<val_t> lambda = run.lambda;
  std::vector<la::Matrix> grams;
  for (int m = 0; m < order; ++m) {
    grams.emplace_back(rank, rank);
    la::ata(factors[static_cast<std::size_t>(m)],
            grams[static_cast<std::size_t>(m)], nt);
  }
  la::Matrix v(rank, rank);
  la::Matrix fit_m;
  PrivateBuffers fit_partials(nt, static_cast<nnz_t>(rank));

  static constexpr const char* kModeSpans[] = {"mttkrp.mode0", "mttkrp.mode1",
                                                "mttkrp.mode2", "mttkrp.mode3"};
  struct SweepTimes {
    std::array<double, 4> mode{};
    double mttkrp = 0, gram = 0, inverse = 0, normalize = 0, ata = 0,
           fit = 0, wall = 0;
  };
  auto sweep = [&](SweepTimes& st) {
    tr.open("sweep");
    for (int m = 0; m < order; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      la::Matrix out_view(dims[mi], rank);
      st.mode[mi] = tr.span(kModeSpans[mi],
                            [&] { plan->execute(factors, m, out_view); });
      st.mttkrp += st.mode[mi];
      if (m == last) {
        st.fit += tr.span("cpd.fit_copy", [&] { fit_m = out_view; });
      }
      st.gram += tr.span("la.gram_hadamard",
                         [&] { la::gram_hadamard(grams, m, v); });
      st.inverse += tr.span("la.inverse", [&] {
        la::solve_normal_equations(v, out_view, nt);
      });
      factors[mi] = std::move(out_view);
      st.normalize += tr.span("la.normalize", [&] {
        la::normalize_columns(factors[mi], lambda, la::MatNorm::kMax, nt);
      });
      if (opts.precision == Precision::kF32) {
        la::round_through_f32(factors[mi]);
      }
      st.ata += tr.span("la.ata", [&] { la::ata(factors[mi], grams[mi], nt); });
    }
    st.fit += tr.span("cpd.fit", [&] {
      const val_t inner = detail::fit_inner_product(
          fit_m, factors[static_cast<std::size_t>(last)], lambda, nt,
          fit_partials);
      const val_t norm_z = detail::model_norm_sq(grams, lambda);
      const val_t residual = std::max(norm_sq + norm_z - 2 * inner, 0.0);
      volatile double fit = 1.0 - std::sqrt(residual) / std::sqrt(norm_sq);
      (void)fit;
    });
    st.wall = tr.close();
  };

  // One warm-up sweep settles lazily built plan state (factor shadows).
  SweepTimes warm;
  sweep(warm);

  const int nsweeps = opts.max_iterations;
  std::vector<SweepTimes> sweeps(static_cast<std::size_t>(nsweeps));
  const std::uint64_t allocs0 = g_allocs.load();
  const std::uint64_t wp0 = weighted_partition_calls();
  const std::uint64_t cs0 = choose_sync_strategy_calls();
  for (SweepTimes& st : sweeps) sweep(st);
  const std::uint64_t allocs = g_allocs.load() - allocs0;
  const std::uint64_t planning = (weighted_partition_calls() - wp0) +
                                 (choose_sync_strategy_calls() - cs0);
  tr.close();

  auto med = [&](auto field) {
    std::vector<double> v2;
    for (const SweepTimes& st : sweeps) v2.push_back(field(st));
    return median(v2);
  };
  std::uint64_t bytes = 0;
  int lock_modes = 0;
  int priv_modes = 0;
  std::string sync;
  for (int m = 0; m < order; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    out.num("mttkrp.mode" + std::to_string(m) + "_s",
            med([&](const SweepTimes& st) { return st.mode[mi]; }));
    const SyncStrategy s = plan->mode_plan(m).strategy;
    lock_modes += s == SyncStrategy::kLock;
    priv_modes += s == SyncStrategy::kPrivatize;
    if (m > 0) sync += ',';
    sync += sync_strategy_name(s);
    bytes += mttkrp_bytes_computed(set, m, rank, opts.precision);
  }
  const double sweep_mttkrp =
      med([](const SweepTimes& st) { return st.mttkrp; });
  out.str("mttkrp.sync", sync);
  out.num("mttkrp.plan_s", plan_s);
  out.num("mttkrp.sweep_s", sweep_mttkrp);
  out.count("mttkrp.bytes_computed", bytes);
  out.num("mttkrp.gbps_computed",
          static_cast<double>(bytes) / sweep_mttkrp / 1e9);
  out.count("mttkrp.lock_modes", static_cast<std::uint64_t>(lock_modes));
  out.count("mttkrp.privatized_modes", static_cast<std::uint64_t>(priv_modes));
  out.count("mttkrp.kernel_width", plan->kernel_width());
  out.num("mttkrp.allocs_per_sweep",
          static_cast<double>(allocs) / static_cast<double>(nsweeps));
  out.num("mttkrp.planning_calls_per_sweep",
          static_cast<double>(planning) / static_cast<double>(nsweeps));
  out.num("la.inverse_s", med([](const SweepTimes& st) { return st.inverse; }));
  out.num("la.ata_s", med([](const SweepTimes& st) { return st.ata; }));
  out.num("la.gram_hadamard_s",
          med([](const SweepTimes& st) { return st.gram; }));
  out.num("la.normalize_s",
          med([](const SweepTimes& st) { return st.normalize; }));
  out.num("cpd.fit_s", med([](const SweepTimes& st) { return st.fit; }));
  out.num("replay.sweep_s", med([](const SweepTimes& st) { return st.wall; }));

  // Oracle: the plan's MTTKRP on the replayed factors against the COO
  // reference, every mode.
  double worst = 0.0;
  tr.span("check.oracle", [&] {
    for (int m = 0; m < order; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      la::Matrix got(dims[mi], rank);
      la::Matrix want(dims[mi], rank);
      plan->execute(factors, m, got);
      mttkrp_coo(coo, factors, m, want, mopts);
      double scale = 0.0;
      for (const val_t x : want.values()) scale = std::max(scale, std::abs(x));
      worst = std::max(worst, got.max_abs_diff(want) / std::max(scale, 1e-300));
    }
  });
  // The precision ladder's per-stream tolerance: fp64 streams differ from
  // the COO oracle only by summation order; fp32 streams by their rounding.
  const double tol = opts.precision == Precision::kF64 ? 1e-10 : 1e-5;
  out.num("check.oracle_rel_err", worst);
  out.flag("check.oracle_ok", worst <= tol);
  out.num("parallel.region_launch_us", region_launch_us(nt));
}

int run(const Args& args) {
  const CpalsOptions opts =
      cpd_options(args.rank, args.iters, args.threads, args.precision);
  set_parallel_backend(opts.backend);
  init_parallel_runtime();

  Tracer tr;
  JsonOut out;
  tr.open("cpd");
  const auto t0 = Clock::now();
  SparseTensor t;
  const double read_s = tr.span("tensor.read", [&] {
    t = ends_with(args.input, ".bin") ? read_bin_file(args.input)
                                      : read_tns_file(args.input);
  });
  val_t norm_sq = 0;
  tr.span("tensor.norm", [&] { norm_sq = t.norm_sq(); });
  double sort_s = 0.0;
  std::unique_ptr<CsfSet> set;
  const double csf_s = tr.span("csf.set", [&] {
    set = std::make_unique<CsfSet>(t, opts.csf_policy, opts.nthreads, &sort_s,
                                   opts.sort_variant, opts.csf_layout);
  });
  const auto t_setup = Clock::now();
  CpalsResult r;
  const double als_s =
      tr.span("cpd.als", [&] { r = cp_als_csf(*set, norm_sq, opts); });
  const double write_s =
      tr.span("model_io.write", [&] { write_model_file(r.model, args.model); });
  const auto t_end = Clock::now();
  tr.close();
  const double rss = peak_rss_mb();

  const double total_s = seconds_between(t0, t_end);
  const double setup_s = seconds_between(t0, t_setup);
  out.num("total_s", total_s);
  out.num("setup_s", setup_s);
  out.num("als_iter_s", als_s / r.iterations);
  out.num("fit", r.fit_history.back());
  out.num("peak_rss_mb", rss);
  out.count("iterations", static_cast<std::uint64_t>(r.iterations));

  bool readback_ok = false;
  try {
    readback_ok = models_equal(read_model_file(args.model), r.model);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_cpd: model readback: %s\n", e.what());
  }
  out.flag("check.readback_ok", readback_ok);

  if (args.trace) {
    const auto input_bytes = std::filesystem::file_size(args.input);
    const auto model_bytes = std::filesystem::file_size(args.model);
    std::uint64_t index_bytes = 0;
    for (const CsfTensor& c : set->csfs()) index_bytes += c.index_bytes();
    const double nnz = static_cast<double>(t.nnz());
    out.num("tensor.read_s", read_s);
    out.num("tensor.read_mb_per_s",
            static_cast<double>(input_bytes) / 1e6 / read_s);
    out.num("sort.s", sort_s);
    out.num("sort.mnnz_per_s",
            nnz * static_cast<double>(set->csfs().size()) / sort_s / 1e6);
    out.num("csf.build_s", csf_s - sort_s);
    out.count("csf.bytes", set->memory_bytes());
    out.count("csf.index_bytes", index_bytes);
    out.count("csf.value_bytes", set->value_bytes(opts.precision));
    out.num("model_io.write_s", write_s);
    out.num("model_io.write_mb_per_s",
            static_cast<double>(model_bytes) / 1e6 / write_s);
    out.count("model_io.bytes", model_bytes);
    replay(opts, *set, t, norm_sq, r.model, tr, out);
    if (!args.spans.empty()) tr.write(args.spans);
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options cli("perfbench_cpd", "one measured load -> CP-ALS -> write run");
  cli.add("input", "", "input tensor (.bin or .tns)");
  cli.add("model", "", "model output path");
  cli.add("rank", "35", "decomposition rank");
  cli.add("iters", "10", "ALS iterations (tolerance 0)");
  cli.add("threads", "1", "threads");
  cli.add("precision", "f64", "value-stream precision: f64 | f32 | mixed");
  cli.add_flag("trace", "time every layer and replay the ALS sweeps");
  cli.add("spans", "", "traced run: write the span list here");
  try {
    if (!cli.parse(argc, argv)) return 0;
    Args a;
    a.input = cli.get_string("input");
    a.model = cli.get_string("model");
    SPTD_CHECK(!a.input.empty() && !a.model.empty(),
               "perfbench_cpd: need --input and --model");
    const std::int64_t rank = cli.get_int("rank");
    const std::int64_t iters = cli.get_int("iters");
    const std::int64_t threads = cli.get_int("threads");
    SPTD_CHECK(rank >= 1 && rank <= 1024 && iters >= 1 && iters <= 100000 &&
                   threads >= 1 && threads <= 1024,
               "perfbench_cpd: need 1 <= --rank <= 1024, "
               "1 <= --iters <= 100000, 1 <= --threads <= 1024");
    a.rank = static_cast<idx_t>(rank);
    a.iters = static_cast<int>(iters);
    a.threads = static_cast<int>(threads);
    a.precision = parse_precision(cli.get_string("precision"));
    a.trace = cli.get_bool("trace");
    a.spans = cli.get_string("spans");
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_cpd: %s\n", e.what());
    return 1;
  }
}
