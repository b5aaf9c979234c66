// Tests for src/sort: all four paper variants must produce identical,
// correctly sorted permutations of the nonzeros, and the production
// stable-pass path must match them bitwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "csf/csf.hpp"
#include "sort/sort.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

/// Multiset of (coords, value) for permutation-invariance checks.
using Entry = std::pair<std::array<idx_t, kMaxOrder>, val_t>;

std::vector<Entry> entries_of(const SparseTensor& t) {
  std::vector<Entry> out;
  out.reserve(t.nnz());
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    out.emplace_back(t.coord(x), t.vals()[x]);
  }
  return out;
}

std::vector<Entry> sorted_entries(const SparseTensor& t) {
  auto e = entries_of(t);
  std::sort(e.begin(), e.end());
  return e;
}

TEST(SortVariantParse, RoundTrips) {
  for (const auto v : {SortVariant::kInitial, SortVariant::kArrayOpt,
                       SortVariant::kSlicesOpt, SortVariant::kAllOpts}) {
    EXPECT_EQ(parse_sort_variant(sort_variant_name(v)), v);
  }
  EXPECT_THROW(parse_sort_variant("bogus"), Error);
}

TEST(SortModeOrder, CyclicConvention) {
  EXPECT_EQ(sort_mode_order(3, 0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sort_mode_order(3, 1), (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(sort_mode_order(3, 2), (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(sort_mode_order(4, 2), (std::vector<int>{2, 3, 0, 1}));
}

// Sweep: every variant x primary mode x thread count sorts correctly and
// preserves the multiset of nonzeros.
class SortSweepTest
    : public ::testing::TestWithParam<std::tuple<SortVariant, int, int>> {};

TEST_P(SortSweepTest, SortsAndPreservesEntries) {
  const auto [variant, mode, nthreads] = GetParam();
  SparseTensor t = generate_synthetic(
      {.dims = {60, 40, 50}, .nnz = 8000, .seed = 77, .zipf_exponent = 0.7});
  const auto before = sorted_entries(t);
  sort_tensor(t, mode, nthreads, variant);
  EXPECT_TRUE(is_sorted(t, mode));
  EXPECT_EQ(sorted_entries(t), before);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsModesThreads, SortSweepTest,
    ::testing::Combine(
        ::testing::Values(SortVariant::kInitial, SortVariant::kArrayOpt,
                          SortVariant::kSlicesOpt, SortVariant::kAllOpts),
        ::testing::Values(0, 1, 2), ::testing::Values(1, 4)));

TEST(Sort, VariantsProduceIdenticalOrder) {
  // All four variants implement the same sort; the resulting nonzero
  // sequences must be identical element-for-element.
  const SparseTensor base = generate_synthetic(
      {.dims = {30, 30, 30}, .nnz = 5000, .seed = 78});
  std::vector<std::vector<Entry>> results;
  for (const auto variant :
       {SortVariant::kInitial, SortVariant::kArrayOpt,
        SortVariant::kSlicesOpt, SortVariant::kAllOpts}) {
    SparseTensor t = base;
    sort_tensor(t, 1, 2, variant);
    results.push_back(entries_of(t));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
}

TEST(Sort, ArbitraryPermutation) {
  SparseTensor t = generate_synthetic(
      {.dims = {20, 25, 30, 15}, .nnz = 3000, .seed = 79});
  const std::vector<int> perm = {2, 0, 3, 1};
  const auto before = sorted_entries(t);
  sort_tensor_perm(t, perm, 3);
  EXPECT_TRUE(is_sorted_perm(t, perm));
  EXPECT_EQ(sorted_entries(t), before);
}

TEST(Sort, AlreadySortedIsStableNoop) {
  SparseTensor t = generate_synthetic(
      {.dims = {40, 40, 40}, .nnz = 2000, .seed = 80});
  sort_tensor(t, 0, 2);
  const auto once = entries_of(t);
  sort_tensor(t, 0, 2);
  EXPECT_EQ(entries_of(t), once);
}

TEST(Sort, SecondaryKeysFullyOrdered) {
  // Within a primary slice, entries must be ordered by the cyclic
  // secondary modes — verify explicitly rather than via is_sorted.
  SparseTensor t = generate_synthetic(
      {.dims = {5, 100, 100}, .nnz = 5000, .seed = 81});
  sort_tensor(t, 0, 2);
  for (nnz_t x = 1; x < t.nnz(); ++x) {
    if (t.ind(0)[x] == t.ind(0)[x - 1]) {
      const auto a1 = t.ind(1)[x - 1], b1 = t.ind(1)[x];
      EXPECT_LE(a1, b1);
      if (a1 == b1) {
        EXPECT_LE(t.ind(2)[x - 1], t.ind(2)[x]);
      }
    }
  }
}

TEST(Sort, EmptyAndSingletonTensors) {
  SparseTensor empty({4, 4, 4});
  sort_tensor(empty, 0, 2);  // no-op, must not crash
  EXPECT_EQ(empty.nnz(), 0u);

  SparseTensor one({4, 4, 4});
  const idx_t c[] = {3, 1, 2};
  one.push_back(c, 5.0);
  sort_tensor(one, 2, 2);
  EXPECT_EQ(one.nnz(), 1u);
  EXPECT_EQ(one.coord(0)[0], 3u);
}

TEST(Sort, DuplicateCoordinatesSurvive) {
  SparseTensor t({8, 8});
  const idx_t c[] = {3, 3};
  t.push_back(c, 1.0);
  t.push_back(c, 2.0);
  const idx_t c2[] = {1, 5};
  t.push_back(c2, 3.0);
  sort_tensor(t, 0, 1);
  EXPECT_EQ(t.nnz(), 3u);
  EXPECT_TRUE(is_sorted(t, 0));
  // Both duplicates present with summed multiset of values.
  val_t dup_sum = 0;
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    if (t.ind(0)[x] == 3) dup_sum += t.vals()[x];
  }
  EXPECT_DOUBLE_EQ(dup_sum, 3.0);
}

TEST(Sort, HeavilySkewedSlices) {
  // One giant slice stresses the per-slice quicksort and the weighted
  // thread partition.
  SparseTensor t({4, 2000, 2000});
  Rng rng(123);
  for (int i = 0; i < 20000; ++i) {
    const idx_t c[] = {0, rng.next_index(2000), rng.next_index(2000)};
    t.push_back(c, 1.0);
  }
  const idx_t c[] = {2, 7, 9};
  t.push_back(c, 2.0);
  sort_tensor(t, 0, 4);
  EXPECT_TRUE(is_sorted(t, 0));
}

TEST(Sort, OrderTwoTensor) {
  SparseTensor t = generate_synthetic({.dims = {50, 60}, .nnz = 1000,
                                       .seed = 82});
  sort_tensor(t, 1, 2);
  EXPECT_TRUE(is_sorted(t, 1));
}

TEST(Sort, AlreadySortedFastPathSkipsResort) {
  SparseTensor t = generate_synthetic({.dims = {60, 70, 80}, .nnz = 3000,
                                       .seed = 84});
  const std::vector<int> perm = {1, 0, 2};
  sort_tensor_perm(t, perm, 2);
  ASSERT_TRUE(is_sorted_perm(t, perm));
  const SparseTensor before = t;
  const std::uint64_t hits = sort_fastpath_hits();
  // Re-sorting an already-ordered tensor must take the pre-scan exit and
  // leave the nonzeros byte-identical (no duplicate reshuffling).
  sort_tensor_perm(t, perm, 2);
  EXPECT_EQ(sort_fastpath_hits(), hits + 1);
  for (int m = 0; m < t.order(); ++m) {
    for (nnz_t x = 0; x < t.nnz(); ++x) {
      ASSERT_EQ(t.ind(m)[x], before.ind(m)[x]);
    }
  }
  // A different order is NOT sorted: the fast path must not fire.
  const std::vector<int> other = {2, 1, 0};
  sort_tensor_perm(t, other, 2);
  EXPECT_EQ(sort_fastpath_hits(), hits + 1);
  EXPECT_TRUE(is_sorted_perm(t, other));
}

TEST(Sort, CsfSetRebuildHitsFastPath) {
  SparseTensor t = generate_synthetic({.dims = {40, 50, 60}, .nnz = 2000,
                                       .seed = 85});
  const CsfSet first(t, CsfPolicy::kOneMode, 2);
  const std::uint64_t hits = sort_fastpath_hits();
  // The tensor is now ordered by the one-mode representation's order; a
  // second build over the same COO skips its sort entirely.
  const CsfSet second(t, CsfPolicy::kOneMode, 2);
  EXPECT_EQ(sort_fastpath_hits(), hits + 1);
  EXPECT_EQ(second.memory_bytes(), first.memory_bytes());
}

// ------------------------------------------- production (stable) path

/// Asserts two CSF representations are identical stream for stream:
/// mode order, stored widths, every fid / fptr entry, and the value bits.
void expect_same_csf(const CsfTensor& got, const CsfTensor& want) {
  ASSERT_EQ(got.mode_order(), want.mode_order());
  ASSERT_EQ(got.nnz(), want.nnz());
  for (int l = 0; l < want.order(); ++l) {
    ASSERT_EQ(got.fid_width(l), want.fid_width(l)) << "level " << l;
    ASSERT_EQ(got.nfibers(l), want.nfibers(l)) << "level " << l;
    for (nnz_t f = 0; f < want.nfibers(l); ++f) {
      ASSERT_EQ(got.fid(l, f), want.fid(l, f)) << "level " << l;
    }
    if (l + 1 == want.order()) continue;
    ASSERT_EQ(got.ptr_width(l), want.ptr_width(l)) << "level " << l;
    for (nnz_t f = 0; f <= want.nfibers(l); ++f) {
      ASSERT_EQ(got.ptr(l, f), want.ptr(l, f)) << "level " << l;
    }
  }
  ASSERT_TRUE(std::ranges::equal(std::as_bytes(got.vals()),
                                 std::as_bytes(want.vals())));
}

/// Asserts two COO tensors hold the same nonzero sequence, bit for bit.
void expect_same_coo(const SparseTensor& got, const SparseTensor& want) {
  ASSERT_EQ(got.dims(), want.dims());
  ASSERT_EQ(got.nnz(), want.nnz());
  for (int m = 0; m < want.order(); ++m) {
    ASSERT_TRUE(std::equal(got.ind(m).begin(), got.ind(m).end(),
                           want.ind(m).begin()))
        << "mode " << m;
  }
  ASSERT_TRUE(std::ranges::equal(std::as_bytes(got.vals()),
                                 std::as_bytes(want.vals())));
}

/// Builds the production CsfSet over a copy of \p input and checks it
/// against the Figure 1 reference: sort_tensor_perm(kAllOpts) + CsfTensor
/// per representation, each from a fresh copy of the input.
void expect_matches_reference(const SparseTensor& input, CsfPolicy policy,
                              int nthreads) {
  SparseTensor coo = input;
  const CsfSet set(coo, policy, nthreads);
  SparseTensor ref;
  for (const CsfTensor& csf : set.csfs()) {
    ref = input;
    sort_tensor_perm(ref, csf.mode_order(), nthreads);
    expect_same_csf(csf, CsfTensor(ref, csf.mode_order()));
  }
  // csf.hpp contract: coo ends in the last representation's order.
  expect_same_coo(coo, ref);
}

// Equivalence sweep: on duplicate-free tensors the stable-pass CsfSet is
// bitwise the per-representation quicksort build, across policies, orders
// 2-5, team sizes 1-4 and mode lengths at the index-width boundaries.
TEST(StableSort, CsfSetMatchesQuicksortReference) {
  const std::vector<dims_t> shapes = {
      {256, 65536},          {1, 255},
      {1, 256, 65535},       {65536, 255, 256},
      {256, 256, 255},       {255, 1, 65536, 256},
      {256, 65535, 1, 255, 65536},
  };
  std::uint64_t seed = 90;
  for (const dims_t& dims : shapes) {
    double volume = 1.0;
    for (const idx_t d : dims) volume *= static_cast<double>(d);
    const auto nnz = static_cast<nnz_t>(std::min(1500.0, volume / 4));
    const SparseTensor t = generate_synthetic(
        {.dims = dims, .nnz = nnz, .seed = ++seed, .zipf_exponent = 0.5});
    for (const auto policy :
         {CsfPolicy::kOneMode, CsfPolicy::kTwoMode, CsfPolicy::kAllMode}) {
      for (int nthreads = 1; nthreads <= 4; ++nthreads) {
        SCOPED_TRACE(::testing::Message()
                     << "order " << dims.size() << " dims[0] " << dims[0]
                     << " policy " << csf_policy_name(policy) << " threads "
                     << nthreads);
        expect_matches_reference(t, policy, nthreads);
      }
    }
  }
}

TEST(StableSort, CsfSetEmptySingletonAndPresortedInputs) {
  const dims_t dims = {30, 10, 20};
  SparseTensor one(dims);
  const idx_t c[] = {7, 3, 11};
  one.push_back(c, 2.5);
  SparseTensor sorted = generate_synthetic({.dims = dims, .nnz = 900,
                                            .seed = 98});
  stable_sort_perm(sorted, csf_mode_order(dims, -1), 2);
  for (const SparseTensor& t : {SparseTensor(dims), one, sorted}) {
    for (const auto policy :
         {CsfPolicy::kOneMode, CsfPolicy::kTwoMode, CsfPolicy::kAllMode}) {
      for (const int nthreads : {1, 3}) {
        SCOPED_TRACE(::testing::Message()
                     << "nnz " << t.nnz() << " policy "
                     << csf_policy_name(policy) << " threads " << nthreads);
        expect_matches_reference(t, policy, nthreads);
      }
    }
  }
  // The presorted input skips the first sort through the fast path.
  SparseTensor coo = sorted;
  const std::uint64_t hits = sort_fastpath_hits();
  const CsfSet set(coo, CsfPolicy::kOneMode, 2);
  EXPECT_EQ(sort_fastpath_hits(), hits + 1);
}

/// Expected streams of one CSF representation, level by level.
struct ExpectedCsf {
  std::vector<int> mode_order;
  std::vector<std::vector<idx_t>> fids;  ///< levels 0..order-1
  std::vector<std::vector<nnz_t>> fptr;  ///< levels 0..order-2
  std::vector<val_t> vals;
};

struct DuplicateFixture {
  CsfPolicy policy;
  std::vector<ExpectedCsf> csfs;
};

/// 3 x 2 x 4 tensor with (0,0,1) twice and (2,1,3) three times; distinct
/// values make the tie order visible. The ascending mode order is (1,0,2)
/// and the longest mode is 2.
SparseTensor duplicate_tensor() {
  SparseTensor t({3, 2, 4});
  const std::vector<std::pair<std::array<idx_t, 3>, val_t>> nonzeros = {
      {{2, 1, 3}, 1.0}, {{0, 0, 1}, 2.0}, {{2, 1, 3}, 3.0},
      {{1, 0, 0}, 4.0}, {{0, 0, 1}, 5.0}, {{1, 1, 3}, 6.0},
      {{2, 1, 3}, 7.0}, {{0, 1, 0}, 8.0},
  };
  for (const auto& [coords, v] : nonzeros) t.push_back(coords, v);
  return t;
}

const ExpectedCsf kRootAscending = {
    {1, 0, 2},
    {{0, 1}, {0, 1, 0, 1, 2}, {1, 1, 0, 0, 3, 3, 3, 3}},
    {{0, 2, 5}, {0, 2, 3, 4, 5, 8}},
    {2, 5, 4, 8, 6, 1, 3, 7}};
const ExpectedCsf kRootTwo = {
    {2, 1, 0},
    {{0, 1, 3}, {0, 1, 0, 1}, {1, 0, 0, 0, 1, 2, 2, 2}},
    {{0, 2, 3, 4}, {0, 1, 2, 4, 8}},
    {4, 8, 2, 5, 6, 1, 3, 7}};
const ExpectedCsf kRootZero = {
    {0, 1, 2},
    {{0, 1, 2}, {0, 1, 0, 1, 1}, {1, 1, 0, 0, 3, 3, 3, 3}},
    {{0, 2, 4, 5}, {0, 2, 3, 4, 5, 8}},
    {2, 5, 8, 4, 6, 1, 3, 7}};

const DuplicateFixture kDuplicateFixtures[] = {
    {CsfPolicy::kOneMode, {kRootAscending}},
    {CsfPolicy::kTwoMode, {kRootAscending, kRootTwo}},
    {CsfPolicy::kAllMode, {kRootZero, kRootAscending, kRootTwo}},
};

// Duplicate coordinates keep their input order in every representation
// (values 2 before 5, and 1, 3, 7), at any team size. The per-slice
// quicksort this replaces in CsfSet left that order unspecified.
TEST(StableSort, DuplicateCoordinatesKeepInputOrder) {
  for (const DuplicateFixture& fx : kDuplicateFixtures) {
    for (const int nthreads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << csf_policy_name(fx.policy)
                                        << " threads " << nthreads);
      SparseTensor coo = duplicate_tensor();
      const CsfSet set(coo, fx.policy, nthreads);
      ASSERT_EQ(set.csfs().size(), fx.csfs.size());
      for (std::size_t r = 0; r < fx.csfs.size(); ++r) {
        const CsfTensor& csf = set.csfs()[r];
        const ExpectedCsf& want = fx.csfs[r];
        ASSERT_EQ(csf.mode_order(), want.mode_order);
        for (int l = 0; l < csf.order(); ++l) {
          const auto& fids = want.fids[static_cast<std::size_t>(l)];
          ASSERT_EQ(csf.nfibers(l), fids.size()) << "level " << l;
          for (nnz_t f = 0; f < fids.size(); ++f) {
            EXPECT_EQ(csf.fid(l, f), fids[f]) << "level " << l;
          }
        }
        for (int l = 0; l + 1 < csf.order(); ++l) {
          const auto& fptr = want.fptr[static_cast<std::size_t>(l)];
          for (nnz_t f = 0; f < fptr.size(); ++f) {
            EXPECT_EQ(csf.ptr(l, f), fptr[f]) << "level " << l;
          }
        }
        EXPECT_TRUE(std::equal(csf.vals().begin(), csf.vals().end(),
                               want.vals.begin(), want.vals.end()));
      }
      // The COO ends in the last representation's order, ties included.
      const ExpectedCsf& last = fx.csfs.back();
      EXPECT_TRUE(std::equal(coo.vals().begin(), coo.vals().end(),
                             last.vals.begin(), last.vals.end()));
    }
  }
}

// kAllMode derives every root from the ascending order. Chaining passes
// instead (root b, then a pass on c over b's order) would leave c's
// representation in (c, b, ...) order, not (c, ascending...): with these
// distinct mode lengths that differs for every root after the second.
TEST(StableSort, AllModeRootsDeriveFromAscendingOrder) {
  for (const dims_t& dims :
       {dims_t{30, 10, 20}, dims_t{40, 10, 30, 20}}) {
    SparseTensor coo = generate_synthetic(
        {.dims = dims, .nnz = 2000, .seed = 99, .zipf_exponent = 0.4});
    const CsfSet set(coo, CsfPolicy::kAllMode, 3);
    ASSERT_EQ(set.csfs().size(), dims.size());
    for (std::size_t r = 0; r < dims.size(); ++r) {
      const CsfTensor& csf = set.csfs()[r];
      EXPECT_EQ(csf.mode_order(),
                csf_mode_order(dims, static_cast<int>(r)));
      EXPECT_TRUE(is_sorted_perm(csf.to_coo(), csf.mode_order()))
          << "root " << r;
    }
    EXPECT_TRUE(is_sorted_perm(coo, set.csfs().back().mode_order()));
  }
}

TEST(StableSort, MatchesQuicksortAndRejectsBadArguments) {
  const SparseTensor base = generate_synthetic(
      {.dims = {20, 25, 30, 15}, .nnz = 3000, .seed = 97});
  const std::vector<int> perm = {2, 0, 3, 1};
  SparseTensor quick = base;
  sort_tensor_perm(quick, perm, 3);
  SparseTensor stable = base;
  stable_sort_perm(stable, perm, 3);
  expect_same_coo(stable, quick);

  SparseTensor scratch;
  EXPECT_THROW(stable_sort_perm(stable, perm, 0), Error);
  EXPECT_THROW(stable_counting_pass(stable, scratch, 4, 1), Error);
  EXPECT_THROW(stable_counting_pass(stable, stable, 0, 1), Error);
  const std::vector<int> bad_perm = {0, 1};
  EXPECT_THROW(stable_sort_perm(stable, bad_perm, 1), Error);
}

// resize_nnz leaves new entries unspecified, so a pass must not read the
// scratch it writes: one into a pre-sized scratch holding a garbage
// pattern (as a reused scratch holds the previous pass's output) gives the
// same bytes as one into a fresh scratch.
TEST(StableSort, PassIntoGarbageScratchMatchesFreshScratch) {
  const SparseTensor src = generate_synthetic(
      {.dims = {40, 25, 300}, .nnz = 5000, .seed = 96, .zipf_exponent = 0.7});
  for (int key = 0; key < src.order(); ++key) {
    for (const int nthreads : {1, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "key " << key << " threads " << nthreads);
      SparseTensor fresh;
      stable_counting_pass(src, fresh, key, nthreads);
      SparseTensor garbage(src.dims());
      garbage.resize_nnz(src.nnz());
      for (int m = 0; m < garbage.order(); ++m) {
        std::fill(garbage.ind(m).begin(), garbage.ind(m).end(),
                  static_cast<idx_t>(0xA5A5A5A5u));
      }
      std::memset(garbage.vals().data(), 0x5A,
                  garbage.nnz() * sizeof(val_t));
      stable_counting_pass(src, garbage, key, nthreads);
      expect_same_coo(garbage, fresh);
    }
  }
}

TEST(Sort, InvalidArgumentsThrow) {
  SparseTensor t = generate_synthetic({.dims = {10, 10}, .nnz = 20,
                                       .seed = 83});
  EXPECT_THROW(sort_tensor(t, 5, 1), Error);
  EXPECT_THROW(sort_tensor(t, 0, 0), Error);
  const std::vector<int> bad_perm = {0};
  EXPECT_THROW(sort_tensor_perm(t, bad_perm, 1), Error);
}

}  // namespace
}  // namespace sptd
