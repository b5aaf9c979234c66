/// \file bench_kernels_micro.cpp
/// \brief Microbenchmarks for the individual kernels underlying the
///        paper's routines: syrk (Mat A^TA), Cholesky solve (Inverse),
///        column normalization (Mat norm), the MTTKRP inner loop under
///        each row-access policy, the rank-specialized SIMD primitives
///        (la/kernels.hpp) vs their generic runtime-rank twins, sorting,
///        and the lock acquire/release fast path.
///
/// Built against google-benchmark when the package is present
/// (SPTD_HAVE_GBENCH); otherwise a bench_common-style WallTimer harness
/// runs the same cases with auto-scaled repetitions, so the kernels have
/// a microbenchmark everywhere.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sptd.hpp"

#if SPTD_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace sptd;

la::Matrix random_matrix(idx_t rows, idx_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return la::Matrix::random(rows, cols, rng);
}

// ------------------------------------------------------------------
// Shared fixtures for the rank-specialized primitive comparisons.
// ------------------------------------------------------------------

/// Aligned, padded operand rows for the length-R primitives.
struct PrimitiveFixture {
  explicit PrimitiveFixture(idx_t rank)
      : rank_(rank), m_(random_matrix(3, rank, 21)) {}

  val_t* dst() { return m_.row_ptr(0); }
  const val_t* a() const { return m_.row_ptr(1); }
  const val_t* b() const { return m_.row_ptr(2); }
  idx_t rank() const { return rank_; }

 private:
  idx_t rank_;
  la::Matrix m_;
};

/// One fixed-vs-generic axpy/hadamard pass over the fixture (the MTTKRP
/// leaf arithmetic); templated so each width gets its own instantiation.
template <idx_t R>
void primitive_pass_fixed(PrimitiveFixture& fx) {
  la::kern::axpy_r<R>(fx.dst(), fx.a(), val_t{1.0000001});
  la::kern::hadamard_accum_r<R>(fx.dst(), fx.a(), fx.b());
  la::kern::scale_r<R>(fx.dst(), fx.a(), val_t{0.9999999});
}

inline void primitive_pass_generic(PrimitiveFixture& fx) {
  la::kern::axpy(fx.dst(), fx.a(), val_t{1.0000001}, fx.rank());
  la::kern::hadamard_accum(fx.dst(), fx.a(), fx.b(), fx.rank());
  la::kern::scale(fx.dst(), fx.a(), val_t{0.9999999}, fx.rank());
}

/// MTTKRP mode-sweep fixture: one plan per (row access, kernels) pair.
struct MttkrpFixture {
  SparseTensor x;
  std::vector<la::Matrix> factors;
  CsfSet set;
  idx_t rank;

  MttkrpFixture(idx_t rank_, std::uint64_t seed)
      : x(generate_synthetic({.dims = {300, 200, 400}, .nnz = 100000,
                              .seed = seed, .zipf_exponent = 0.5})),
        set(x, CsfPolicy::kTwoMode, 1), rank(rank_) {
    Rng rng(seed + 1);
    for (int m = 0; m < 3; ++m) {
      factors.push_back(la::Matrix::random(x.dim(m), rank, rng));
    }
  }
};

void run_mttkrp_sweep(MttkrpFixture& fx, MttkrpPlan& plan,
                      std::vector<la::Matrix>& outs) {
  for (int m = 0; m < 3; ++m) {
    plan.execute(fx.factors, m, outs[static_cast<std::size_t>(m)]);
  }
}

std::vector<la::Matrix> make_outputs(const MttkrpFixture& fx) {
  std::vector<la::Matrix> outs;
  for (int m = 0; m < 3; ++m) {
    outs.emplace_back(fx.x.dim(m), fx.rank);
  }
  return outs;
}

}  // namespace

#if SPTD_HAVE_GBENCH

// =====================================================================
// google-benchmark harness
// =====================================================================

namespace {

void BM_Ata(benchmark::State& state) {
  const auto rows = static_cast<idx_t>(state.range(0));
  const la::Matrix a = random_matrix(rows, 35, 1);
  la::Matrix out(35, 35);
  for (auto _ : state) {
    la::ata(a, out, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_Ata)->Arg(1000)->Arg(10000);

void BM_CholeskySolve(benchmark::State& state) {
  const auto n = static_cast<idx_t>(state.range(0));
  la::Matrix a = random_matrix(n + 4, n, 2);
  la::Matrix spd(n, n);
  la::ata(a, spd, 1);
  for (idx_t i = 0; i < n; ++i) {
    spd(i, i) += n;
  }
  la::Matrix rhs = random_matrix(1000, n, 3);
  for (auto _ : state) {
    la::Matrix m = rhs;
    la::solve_normal_equations(spd, m, 1);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(16)->Arg(35);

void BM_NormalizeColumns(benchmark::State& state) {
  la::Matrix a = random_matrix(static_cast<idx_t>(state.range(0)), 35, 4);
  std::vector<val_t> lambda(35);
  const auto which =
      state.range(1) == 0 ? la::MatNorm::kTwo : la::MatNorm::kMax;
  for (auto _ : state) {
    la::normalize_columns(a, lambda, which, 1);
    benchmark::DoNotOptimize(lambda.data());
  }
}
BENCHMARK(BM_NormalizeColumns)->Args({10000, 0})->Args({10000, 1});

void BM_MttkrpRowAccess(benchmark::State& state) {
  MttkrpFixture fx(35, 5);
  MttkrpOptions mo;
  mo.nthreads = 1;
  mo.row_access = static_cast<RowAccess>(state.range(0));
  MttkrpPlan plan(fx.set, fx.rank, mo);
  auto outs = make_outputs(fx);
  for (auto _ : state) {
    run_mttkrp_sweep(fx, plan, outs);
    benchmark::DoNotOptimize(outs[0].data());
  }
  state.SetLabel(row_access_name(mo.row_access));
  state.SetItemsProcessed(state.iterations() * 100000 * 3);
}
BENCHMARK(BM_MttkrpRowAccess)
    ->Arg(static_cast<int>(RowAccess::kSlice))
    ->Arg(static_cast<int>(RowAccess::kIndex2D))
    ->Arg(static_cast<int>(RowAccess::kPointer));

void BM_MttkrpKernelWidth(benchmark::State& state) {
  const auto rank = static_cast<idx_t>(state.range(0));
  const bool fixed = state.range(1) != 0;
  MttkrpFixture fx(rank, 5);
  MttkrpOptions mo;
  mo.nthreads = 1;
  mo.use_fixed_kernels = fixed;
  MttkrpPlan plan(fx.set, fx.rank, mo);
  auto outs = make_outputs(fx);
  for (auto _ : state) {
    run_mttkrp_sweep(fx, plan, outs);
    benchmark::DoNotOptimize(outs[0].data());
  }
  state.SetLabel("rank" + std::to_string(rank) +
                 (fixed ? "/fixed" : "/generic") + "/width" +
                 std::to_string(plan.kernel_width()));
  state.SetItemsProcessed(state.iterations() * 100000 * 3);
}
BENCHMARK(BM_MttkrpKernelWidth)
    ->Args({16, 0})->Args({16, 1})
    ->Args({32, 0})->Args({32, 1});

template <idx_t R>
void BM_PrimitivesFixed(benchmark::State& state) {
  PrimitiveFixture fx(R);
  for (auto _ : state) {
    primitive_pass_fixed<R>(fx);
    benchmark::DoNotOptimize(fx.dst());
  }
  state.SetLabel("axpy+hadamard+scale r" + std::to_string(R));
}
BENCHMARK_TEMPLATE(BM_PrimitivesFixed, 8);
BENCHMARK_TEMPLATE(BM_PrimitivesFixed, 16);
BENCHMARK_TEMPLATE(BM_PrimitivesFixed, 32);

void BM_PrimitivesGeneric(benchmark::State& state) {
  PrimitiveFixture fx(static_cast<idx_t>(state.range(0)));
  for (auto _ : state) {
    primitive_pass_generic(fx);
    benchmark::DoNotOptimize(fx.dst());
  }
}
BENCHMARK(BM_PrimitivesGeneric)->Arg(8)->Arg(16)->Arg(32);

void BM_SortVariant(benchmark::State& state) {
  const SparseTensor base = generate_synthetic(
      {.dims = {300, 200, 400}, .nnz = 100000, .seed = 7,
       .zipf_exponent = 0.5});
  const auto variant = static_cast<SortVariant>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SparseTensor work = base;
    state.ResumeTiming();
    sort_tensor(work, 0, 1, variant);
    benchmark::DoNotOptimize(work.vals().data());
  }
  state.SetLabel(sort_variant_name(variant));
}
BENCHMARK(BM_SortVariant)
    ->Arg(static_cast<int>(SortVariant::kInitial))
    ->Arg(static_cast<int>(SortVariant::kArrayOpt))
    ->Arg(static_cast<int>(SortVariant::kSlicesOpt))
    ->Arg(static_cast<int>(SortVariant::kAllOpts));

void BM_LockUncontended(benchmark::State& state) {
  AnyMutexPool pool(static_cast<LockKind>(state.range(0)));
  idx_t id = 0;
  for (auto _ : state) {
    pool.lock(id);
    pool.unlock(id);
    id = (id + 1) & 1023;
  }
  state.SetLabel(lock_kind_name(static_cast<LockKind>(state.range(0))));
}
BENCHMARK(BM_LockUncontended)
    ->Arg(static_cast<int>(LockKind::kSync))
    ->Arg(static_cast<int>(LockKind::kAtomic))
    ->Arg(static_cast<int>(LockKind::kFifoSync))
    ->Arg(static_cast<int>(LockKind::kOmp));

void BM_Ttmc(benchmark::State& state) {
  SparseTensor x = generate_synthetic(
      {.dims = {300, 200, 400}, .nnz = 100000, .seed = 9});
  const auto core = static_cast<idx_t>(state.range(0));
  Rng rng(10);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(x.dim(m), core, rng));
  }
  la::Matrix out(x.dim(0), core * core);
  for (auto _ : state) {
    ttmc(x, factors, 0, out, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_Ttmc)->Arg(4)->Arg(8)->Arg(16);

void BM_SymmetricEigen(benchmark::State& state) {
  const auto n = static_cast<idx_t>(state.range(0));
  Rng rng(11);
  const la::Matrix b = la::Matrix::random(n + 4, n, rng);
  la::Matrix a(n, n);
  la::ata(b, a, 1);
  std::vector<val_t> evals(n);
  la::Matrix evecs(n, n);
  for (auto _ : state) {
    la::symmetric_eigen(a, evals, evecs);
    benchmark::DoNotOptimize(evals.data());
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(16)->Arg(64)->Arg(128);

void BM_CsfBuild(benchmark::State& state) {
  const SparseTensor base = generate_synthetic(
      {.dims = {300, 200, 400}, .nnz = 100000, .seed = 8});
  for (auto _ : state) {
    SparseTensor work = base;
    const CsfSet set(work, CsfPolicy::kTwoMode, 1);
    benchmark::DoNotOptimize(set.memory_bytes());
  }
}
BENCHMARK(BM_CsfBuild);

}  // namespace

BENCHMARK_MAIN();

#else  // !SPTD_HAVE_GBENCH

// =====================================================================
// Fallback harness: WallTimer + auto-scaled repetitions (the shape
// bench_common's figure harnesses use), so the kernels keep a
// microbenchmark where google-benchmark is not installed.
// =====================================================================

namespace {

/// Keeps the optimizer from deleting a benchmarked computation.
inline void do_not_optimize(const void* p) {
  asm volatile("" : : "g"(p) : "memory");
}

/// Times op() with repetitions auto-scaled to ~200ms and prints ns/op.
void run_case(const std::string& name, const std::function<void()>& op) {
  op();  // warm (page faults, code paths)
  // Calibrate.
  WallTimer probe;
  probe.start();
  long calib = 0;
  while (probe.seconds() < 0.01) {
    op();
    ++calib;
  }
  probe.stop();
  const long reps =
      std::max<long>(1, static_cast<long>(0.2 * calib / probe.seconds()));
  WallTimer timer;
  timer.start();
  for (long i = 0; i < reps; ++i) {
    op();
  }
  timer.stop();
  std::printf("%-44s %12ld reps %14.1f ns/op\n", name.c_str(), reps,
              timer.seconds() / static_cast<double>(reps) * 1e9);
  std::fflush(stdout);
}

template <idx_t R>
void run_primitive_cases() {
  PrimitiveFixture fixed_fx(R);
  run_case("primitives/fixed/r" + std::to_string(R),
           [&] { primitive_pass_fixed<R>(fixed_fx);
                 do_not_optimize(fixed_fx.dst()); });
  PrimitiveFixture gen_fx(R);
  run_case("primitives/generic/r" + std::to_string(R),
           [&] { primitive_pass_generic(gen_fx);
                 do_not_optimize(gen_fx.dst()); });
}

}  // namespace

int main() {
  std::printf("# bench_kernels_micro (fallback harness; install "
              "google-benchmark for the full one)\n");

  {
    const la::Matrix a = random_matrix(10000, 35, 1);
    la::Matrix out(35, 35);
    run_case("ata/10000x35",
             [&] { la::ata(a, out, 1); do_not_optimize(out.data()); });
  }

  {
    const idx_t n = 35;
    la::Matrix a = random_matrix(n + 4, n, 2);
    la::Matrix spd(n, n);
    la::ata(a, spd, 1);
    for (idx_t i = 0; i < n; ++i) {
      spd(i, i) += n;
    }
    const la::Matrix rhs = random_matrix(1000, n, 3);
    run_case("cholesky_solve/35", [&] {
      la::Matrix m = rhs;
      la::solve_normal_equations(spd, m, 1);
      do_not_optimize(m.data());
    });
  }

  {
    la::Matrix a = random_matrix(10000, 35, 4);
    std::vector<val_t> lambda(35);
    run_case("normalize_columns/two", [&] {
      la::normalize_columns(a, lambda, la::MatNorm::kTwo, 1);
      do_not_optimize(lambda.data());
    });
  }

  run_primitive_cases<8>();
  run_primitive_cases<16>();
  run_primitive_cases<32>();

  for (const auto ra :
       {RowAccess::kSlice, RowAccess::kIndex2D, RowAccess::kPointer}) {
    MttkrpFixture fx(35, 5);
    MttkrpOptions mo;
    mo.nthreads = 1;
    mo.row_access = ra;
    MttkrpPlan plan(fx.set, fx.rank, mo);
    auto outs = make_outputs(fx);
    run_case(std::string("mttkrp_sweep/") + row_access_name(ra), [&] {
      run_mttkrp_sweep(fx, plan, outs);
      do_not_optimize(outs[0].data());
    });
  }

  for (const idx_t rank : {idx_t{16}, idx_t{32}}) {
    for (const bool fixed : {false, true}) {
      MttkrpFixture fx(rank, 5);
      MttkrpOptions mo;
      mo.nthreads = 1;
      mo.use_fixed_kernels = fixed;
      MttkrpPlan plan(fx.set, fx.rank, mo);
      auto outs = make_outputs(fx);
      run_case("mttkrp_sweep/rank" + std::to_string(rank) +
                   (fixed ? "/fixed/width" : "/generic/width") +
                   std::to_string(plan.kernel_width()),
               [&] {
                 run_mttkrp_sweep(fx, plan, outs);
                 do_not_optimize(outs[0].data());
               });
    }
  }

  return 0;
}

#endif  // SPTD_HAVE_GBENCH
