// Tests for src/csf: construction, structure invariants, COO round trips,
// allocation policies, dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "csf/csf.hpp"
#include "sort/sort.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

using Entry = std::pair<std::array<idx_t, kMaxOrder>, val_t>;

std::vector<Entry> sorted_entries(const SparseTensor& t) {
  std::vector<Entry> out;
  out.reserve(t.nnz());
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    out.emplace_back(t.coord(x), t.vals()[x]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Small hand-checkable tensor:
///   (0,0,0)=1  (0,0,1)=2  (0,2,1)=3  (1,1,0)=4
SparseTensor hand_tensor() {
  SparseTensor t({2, 3, 2});
  const idx_t c0[] = {0, 0, 0};
  const idx_t c1[] = {0, 0, 1};
  const idx_t c2[] = {0, 2, 1};
  const idx_t c3[] = {1, 1, 0};
  t.push_back(c0, 1.0);
  t.push_back(c1, 2.0);
  t.push_back(c2, 3.0);
  t.push_back(c3, 4.0);
  return t;
}

TEST(CsfModeOrder, AscendingDimsWithRootFirst) {
  const dims_t dims = {100, 10, 50};
  EXPECT_EQ(csf_mode_order(dims, -1), (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(csf_mode_order(dims, 0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(csf_mode_order(dims, 2), (std::vector<int>{2, 1, 0}));
}

TEST(CsfModeOrder, TiesBrokenByModeId) {
  const dims_t dims = {10, 10, 10};
  EXPECT_EQ(csf_mode_order(dims, -1), (std::vector<int>{0, 1, 2}));
}

TEST(CsfPolicyParse, RoundTrips) {
  for (const auto p :
       {CsfPolicy::kOneMode, CsfPolicy::kTwoMode, CsfPolicy::kAllMode}) {
    EXPECT_EQ(parse_csf_policy(csf_policy_name(p)), p);
  }
  EXPECT_THROW(parse_csf_policy("none"), Error);
}

TEST(Csf, HandExampleStructure) {
  SparseTensor t = hand_tensor();
  const std::vector<int> order = {0, 1, 2};  // natural order
  sort_tensor_perm(t, order, 1);
  // Wide layout for this hand-checkable structure walk (compressed
  // coverage lives in test_csf_compressed.cpp).
  const CsfTensor csf(t, order, CsfLayout::kWide);

  // Root level: slices 0 and 1.
  ASSERT_EQ(csf.nfibers(0), 2u);
  EXPECT_EQ(csf.fid(0, 0), 0u);
  EXPECT_EQ(csf.fid(0, 1), 1u);

  // Level 1 fibers: (0,0), (0,2), (1,1).
  ASSERT_EQ(csf.nfibers(1), 3u);
  EXPECT_EQ(csf.fid(1, 0), 0u);
  EXPECT_EQ(csf.fid(1, 1), 2u);
  EXPECT_EQ(csf.fid(1, 2), 1u);
  EXPECT_EQ(csf.ptr(0, 0), 0u);
  EXPECT_EQ(csf.ptr(0, 1), 2u);  // slice 0 owns fibers 0,1
  EXPECT_EQ(csf.ptr(0, 2), 3u);

  // Leaves: 4 nonzeros; fiber (0,0) holds leaves {0,1}.
  ASSERT_EQ(csf.nnz(), 4u);
  EXPECT_EQ(csf.ptr(1, 0), 0u);
  EXPECT_EQ(csf.ptr(1, 1), 2u);
  EXPECT_EQ(csf.ptr(1, 2), 3u);
  EXPECT_EQ(csf.ptr(1, 3), 4u);
  EXPECT_EQ(csf.fid(2, 0), 0u);
  EXPECT_EQ(csf.fid(2, 1), 1u);
  EXPECT_DOUBLE_EQ(csf.vals()[3], 4.0);

  // Root nnz prefix: slice 0 has 3 nonzeros, slice 1 has 1.
  EXPECT_EQ(csf.root_nnz_prefix()[0], 0u);
  EXPECT_EQ(csf.root_nnz_prefix()[1], 3u);
  EXPECT_EQ(csf.root_nnz_prefix()[2], 4u);
}

TEST(Csf, LevelOfModeInverse) {
  SparseTensor t = hand_tensor();
  const std::vector<int> order = {2, 0, 1};
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  EXPECT_EQ(csf.mode_at_level(0), 2);
  EXPECT_EQ(csf.level_of_mode(2), 0);
  EXPECT_EQ(csf.level_of_mode(0), 1);
  EXPECT_EQ(csf.level_of_mode(1), 2);
}

TEST(Csf, RejectsBadModeOrder) {
  SparseTensor t = hand_tensor();
  sort_tensor(t, 0, 1);
  EXPECT_THROW(CsfTensor(t, {0, 1}), Error);     // wrong length
  EXPECT_THROW(CsfTensor(t, {0, 0, 2}), Error);  // not a permutation
}

// Table-driven stream fixtures: each hand tensor pins every level's fids,
// fptr and widths plus the root nonzero prefix, under both layouts.
struct CsfStreamCase {
  std::string name;
  dims_t dims;
  std::vector<std::vector<idx_t>> coords;  ///< original mode numbering
  std::vector<int> mode_order;
  std::vector<std::vector<nnz_t>> fids;  ///< levels 0..order-1
  std::vector<std::vector<nnz_t>> fptr;  ///< levels 0..order-2
  std::vector<nnz_t> root_nnz_prefix;
  std::vector<int> fid_widths;  ///< compressed layout; wide is all 4
  std::vector<int> ptr_widths;  ///< compressed layout; wide is all 8
};

std::ostream& operator<<(std::ostream& os, const CsfStreamCase& c) {
  return os << c.name;
}

const CsfStreamCase kStreamCases[] = {
    {"order2", {3, 4}, {{2, 0}, {0, 3}, {0, 1}}, {0, 1},
     {{0, 2}, {1, 3, 0}}, {{0, 2, 3}}, {0, 2, 3}, {1, 1}, {2}},
    // hand_tensor(): (0,0,0) (0,0,1) (0,2,1) (1,1,0).
    {"hand_order3", {2, 3, 2}, {{0, 0, 0}, {0, 0, 1}, {0, 2, 1}, {1, 1, 0}},
     {0, 1, 2}, {{0, 1}, {0, 2, 1}, {0, 1, 1, 0}},
     {{0, 2, 3}, {0, 2, 3, 4}}, {0, 3, 4}, {1, 1, 1}, {2, 2}},
    // Levels hold modes 0, 2, 1, 3, so the fids widen u8 u8 u16 u32.
    {"order4", {2, 300, 2, 70000},
     {{0, 299, 1, 69999}, {0, 5, 1, 7}, {1, 5, 0, 0}, {0, 5, 0, 3}},
     {0, 2, 1, 3}, {{0, 1}, {0, 1, 0}, {5, 5, 299, 5}, {3, 7, 69999, 0}},
     {{0, 2, 3}, {0, 1, 3, 4}, {0, 1, 2, 3, 4}}, {0, 3, 4}, {1, 1, 2, 4},
     {2, 2, 2}},
    // A repeated coordinate opens no new fiber above the leaf.
    {"duplicate", {2, 2, 2}, {{0, 1, 1}, {1, 0, 0}, {0, 1, 1}}, {0, 1, 2},
     {{0, 1}, {1, 0}, {1, 1, 0}}, {{0, 1, 2}, {0, 2, 3}}, {0, 2, 3},
     {1, 1, 1}, {2, 2}},
    {"one_nonzero", {5, 6, 7}, {{3, 4, 5}}, {0, 1, 2},
     {{3}, {4}, {5}}, {{0, 1}, {0, 1}}, {0, 1}, {1, 1, 1}, {2, 2}},
    {"empty", {4, 5, 6}, {}, {0, 1, 2}, {{}, {}, {}}, {{0}, {0}}, {0},
     {1, 1, 1}, {2, 2}},
};

class CsfStreamTest
    : public ::testing::TestWithParam<std::tuple<CsfStreamCase, CsfLayout>> {
};

TEST_P(CsfStreamTest, PinsEveryLevel) {
  const auto& [c, layout] = GetParam();
  SparseTensor t(c.dims);
  for (const auto& coord : c.coords) {
    t.push_back({coord.data(), coord.size()}, 1.0);
  }
  sort_tensor_perm(t, c.mode_order, 1);
  const CsfTensor csf(t, c.mode_order, layout);
  const bool wide = layout == CsfLayout::kWide;

  std::uint64_t index_bytes = 0;
  for (int l = 0; l < csf.order(); ++l) {
    SCOPED_TRACE("level " + std::to_string(l));
    const auto& fids = c.fids[static_cast<std::size_t>(l)];
    ASSERT_EQ(csf.nfibers(l), fids.size());
    EXPECT_EQ(csf.fid_width(l),
              wide ? 4 : c.fid_widths[static_cast<std::size_t>(l)]);
    EXPECT_EQ(csf.fid_stream(l).width, csf.fid_width(l));
    for (nnz_t f = 0; f < fids.size(); ++f) {
      EXPECT_EQ(csf.fid(l, f), fids[f]) << "fiber " << f;
    }
    index_bytes += fids.size() * static_cast<std::uint64_t>(csf.fid_width(l));
    if (l == csf.order() - 1) continue;
    const auto& fptr = c.fptr[static_cast<std::size_t>(l)];
    ASSERT_EQ(fptr.size(), fids.size() + 1);
    EXPECT_EQ(csf.ptr_width(l),
              wide ? 8 : c.ptr_widths[static_cast<std::size_t>(l)]);
    EXPECT_EQ(csf.ptr_stream(l).width, csf.ptr_width(l));
    for (nnz_t f = 0; f < fptr.size(); ++f) {
      EXPECT_EQ(csf.ptr(l, f), fptr[f]) << "entry " << f;
    }
    index_bytes += fptr.size() * static_cast<std::uint64_t>(csf.ptr_width(l));
  }
  EXPECT_EQ(std::vector<nnz_t>(csf.root_nnz_prefix().begin(),
                               csf.root_nnz_prefix().end()),
            c.root_nnz_prefix);
  EXPECT_EQ(csf.index_bytes(), index_bytes);
  EXPECT_EQ(csf.memory_bytes(),
            index_bytes + c.coords.size() * sizeof(val_t) +
                c.root_nnz_prefix.size() * sizeof(nnz_t));
}

INSTANTIATE_TEST_SUITE_P(
    HandTensors, CsfStreamTest,
    ::testing::Combine(::testing::ValuesIn(kStreamCases),
                       ::testing::Values(CsfLayout::kCompressed,
                                         CsfLayout::kWide)),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_" +
             csf_layout_name(std::get<1>(info.param));
    });

// Parallel build: every thread count stores the bytes of the 1-thread
// build. The cases are the hand fixtures above (nnz 0 and 1 among them),
// generated tensors with mode lengths at the fid-width boundaries, one
// whose level-0 fptr crosses u16, and a single root slice, which leaves
// every block but one empty.
struct CsfThreadsCase {
  std::string name;
  SparseTensor coo;  ///< unsorted
  std::vector<int> mode_order;
};

std::ostream& operator<<(std::ostream& os, const CsfThreadsCase& c) {
  return os << c.name;
}

std::vector<CsfThreadsCase> threads_cases() {
  std::vector<CsfThreadsCase> out;
  for (const CsfStreamCase& c : kStreamCases) {
    SparseTensor t(c.dims);
    for (const auto& coord : c.coords) {
      t.push_back({coord.data(), coord.size()}, 0.5 + t.nnz());
    }
    out.push_back({c.name, std::move(t), c.mode_order});
  }
  const auto generated = [&](std::string name, dims_t dims, nnz_t nnz,
                             std::uint64_t seed, double zipf) {
    SparseTensor t = generate_synthetic(
        {.dims = dims, .nnz = nnz, .seed = seed, .zipf_exponent = zipf});
    out.push_back({std::move(name), std::move(t), csf_mode_order(dims, -1)});
  };
  generated("order3_boundary_dims", {255, 256, 65536}, 4000, 70, 0.6);
  generated("order4_boundary_dims", {256, 65535, 255, 65536}, 4000, 71, 0.0);
  // Two root slices over more than 65535 level-1 fibers: the level-0 fptr
  // (and so the deeper one) is stored at u32.
  generated("ptr_crosses_u16", {2, 50000, 60000}, 200000, 72, 0.0);
  generated("single_root_slice", {1, 40, 50}, 600, 73, 0.3);
  return out;
}

/// Asserts two CSFs store the same bytes: every stream's width, length
/// and contents, the root prefix, the values and the footprint.
void expect_same_bytes(const CsfTensor& got, const CsfTensor& want) {
  ASSERT_EQ(got.mode_order(), want.mode_order());
  ASSERT_EQ(got.nnz(), want.nnz());
  for (int l = 0; l < want.order(); ++l) {
    SCOPED_TRACE("level " + std::to_string(l));
    ASSERT_EQ(got.fid_width(l), want.fid_width(l));
    ASSERT_EQ(got.nfibers(l), want.nfibers(l));
    EXPECT_EQ(std::memcmp(got.fid_stream(l).base, want.fid_stream(l).base,
                          want.nfibers(l) * want.fid_width(l)),
              0);
    if (l + 1 == want.order()) continue;
    ASSERT_EQ(got.ptr_width(l), want.ptr_width(l));
    EXPECT_EQ(std::memcmp(got.ptr_stream(l).base, want.ptr_stream(l).base,
                          (want.nfibers(l) + 1) * want.ptr_width(l)),
              0);
  }
  EXPECT_TRUE(std::ranges::equal(got.root_nnz_prefix(),
                                 want.root_nnz_prefix()));
  EXPECT_TRUE(std::ranges::equal(std::as_bytes(got.vals()),
                                 std::as_bytes(want.vals())));
  EXPECT_EQ(got.index_bytes(), want.index_bytes());
  EXPECT_EQ(got.memory_bytes(), want.memory_bytes());
}

class CsfThreadsTest
    : public ::testing::TestWithParam<std::tuple<CsfThreadsCase, CsfLayout>> {
};

TEST_P(CsfThreadsTest, EveryThreadCountStoresTheSerialBytes) {
  const auto& [c, layout] = GetParam();
  SparseTensor t = c.coo;
  stable_sort_perm(t, c.mode_order, 1);
  const CsfTensor serial(t, c.mode_order, layout);
  for (const int nthreads : {2, 3, 4}) {
    SCOPED_TRACE("threads " + std::to_string(nthreads));
    expect_same_bytes(CsfTensor(t, c.mode_order, layout, nthreads), serial);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CsfThreadsTest,
    ::testing::Combine(::testing::ValuesIn(threads_cases()),
                       ::testing::Values(CsfLayout::kCompressed,
                                         CsfLayout::kWide)),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_" +
             csf_layout_name(std::get<1>(info.param));
    });

TEST(CsfThreads, CaseShapesCoverTheirClaims) {
  // Guards the fixtures above against drifting off what they exercise.
  for (const CsfThreadsCase& c : threads_cases()) {
    SparseTensor t = c.coo;
    stable_sort_perm(t, c.mode_order, 1);
    const CsfTensor csf(t, c.mode_order);
    if (c.name == "ptr_crosses_u16") {
      EXPECT_GT(csf.nfibers(1), 65535u);
      EXPECT_EQ(csf.ptr_width(0), 4);
    } else if (c.name == "single_root_slice") {
      EXPECT_EQ(csf.nfibers(0), 1u);
      EXPECT_GT(csf.nnz(), 4u);
    }
  }
}

// Round-trip sweep over orders, roots, and skew.
class CsfRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(CsfRoundTripTest, ToCooRecoversTensor) {
  const auto [order, root, zipf] = GetParam();
  dims_t dims;
  std::uint64_t volume = 1;
  for (int m = 0; m < order; ++m) {
    dims.push_back(static_cast<idx_t>(20 + 10 * m));
    volume *= dims.back();
  }
  const nnz_t nnz = std::min<nnz_t>(3000, volume / 4);
  SparseTensor t = generate_synthetic(
      {.dims = dims, .nnz = nnz, .seed = 90, .zipf_exponent = zipf});
  const auto expected = sorted_entries(t);

  const auto mode_order = csf_mode_order(dims, root % order);
  sort_tensor_perm(t, mode_order, 2);
  const CsfTensor csf(t, mode_order);
  EXPECT_EQ(csf.nnz(), nnz);
  const SparseTensor back = csf.to_coo();
  EXPECT_EQ(sorted_entries(back), expected);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersRootsSkew, CsfRoundTripTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(0, 1),
                       ::testing::Values(0.0, 0.9)));

TEST(Csf, FiberPointersAreMonotoneAndCover) {
  SparseTensor t = generate_synthetic(
      {.dims = {40, 30, 20}, .nnz = 2500, .seed = 91});
  const auto order = csf_mode_order(t.dims(), -1);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order, CsfLayout::kWide);
  for (int l = 0; l < csf.order() - 1; ++l) {
    const nnz_t nfibers = csf.nfibers(l);
    const PtrStreamRef fp = csf.ptr_stream(l);  // nfibers + 1 entries
    EXPECT_EQ(fp[0], 0u);
    for (nnz_t i = 1; i <= nfibers; ++i) {
      EXPECT_LT(fp[i - 1], fp[i]);  // strictly increasing: no empty fibers
    }
    EXPECT_EQ(fp[nfibers], csf.nfibers(l + 1));
  }
}

TEST(Csf, RootFidsAreStrictlyIncreasing) {
  SparseTensor t = generate_synthetic(
      {.dims = {50, 20, 20}, .nnz = 1500, .seed = 92});
  const auto order = csf_mode_order(t.dims(), 0);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order, CsfLayout::kWide);
  for (nnz_t i = 1; i < csf.nfibers(0); ++i) {
    EXPECT_LT(csf.fid(0, i - 1), csf.fid(0, i));
  }
}

TEST(Csf, MemoryBytesBounded) {
  SparseTensor t = generate_synthetic(
      {.dims = {30, 30, 30}, .nnz = 2000, .seed = 93});
  const auto order = csf_mode_order(t.dims(), -1);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order, CsfLayout::kWide);
  // At least the leaves (vals + fids), at most the fully uncompressed COO
  // plus pointer overhead.
  const std::uint64_t lower = 2000 * (sizeof(val_t) + sizeof(idx_t));
  const std::uint64_t upper =
      2000 * (sizeof(val_t) + 3 * sizeof(idx_t) + 3 * sizeof(nnz_t)) +
      (2000 + 64) * sizeof(nnz_t);
  EXPECT_GE(csf.memory_bytes(), lower);
  EXPECT_LE(csf.memory_bytes(), upper);
}

TEST(Csf, CompressionBeatsCooOnDuplicatePrefixes) {
  // A tensor with few distinct (mode0, mode1) pairs compresses well.
  SparseTensor t({4, 4, 10000});
  Rng rng(7);
  std::set<idx_t> used;
  for (int k = 0; k < 5000; ++k) {
    const idx_t c[] = {rng.next_index(4), rng.next_index(4),
                       rng.next_index(10000)};
    t.push_back(c, 1.0);
  }
  const auto order = csf_mode_order(t.dims(), 0);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  const std::uint64_t coo_bytes =
      t.nnz() * (3 * sizeof(idx_t) + sizeof(val_t));
  EXPECT_LT(csf.memory_bytes(), coo_bytes);
}

// ---------------------------------------------------------------- CsfSet

TEST(CsfSet, OneModePolicyBuildsOneRep) {
  SparseTensor t = generate_synthetic(
      {.dims = {50, 10, 30}, .nnz = 1000, .seed = 94});
  const CsfSet set(t, CsfPolicy::kOneMode, 2);
  EXPECT_EQ(set.csfs().size(), 1u);
  EXPECT_EQ(set.csfs()[0].mode_at_level(0), 1);  // smallest mode roots
}

TEST(CsfSet, TwoModePolicyRootsSmallestAndLargest) {
  SparseTensor t = generate_synthetic(
      {.dims = {50, 10, 30}, .nnz = 1000, .seed = 95});
  const CsfSet set(t, CsfPolicy::kTwoMode, 2);
  ASSERT_EQ(set.csfs().size(), 2u);
  EXPECT_EQ(set.csfs()[0].mode_at_level(0), 1);  // smallest
  EXPECT_EQ(set.csfs()[1].mode_at_level(0), 0);  // largest
}

TEST(CsfSet, AllModePolicyRootsEveryMode) {
  SparseTensor t = generate_synthetic(
      {.dims = {50, 10, 30}, .nnz = 1000, .seed = 96});
  const CsfSet set(t, CsfPolicy::kAllMode, 2);
  ASSERT_EQ(set.csfs().size(), 3u);
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(set.csfs()[static_cast<std::size_t>(m)].mode_at_level(0), m);
  }
}

TEST(CsfSet, DispatchPrefersRootRepresentation) {
  SparseTensor t = generate_synthetic(
      {.dims = {50, 10, 30}, .nnz = 1000, .seed = 97});
  const CsfSet set(t, CsfPolicy::kTwoMode, 2);
  int level = -1;
  const CsfTensor& for_smallest = set.csf_for_mode(1, level);
  EXPECT_EQ(level, 0);
  EXPECT_EQ(for_smallest.mode_at_level(0), 1);
  const CsfTensor& for_largest = set.csf_for_mode(0, level);
  EXPECT_EQ(level, 0);
  EXPECT_EQ(for_largest.mode_at_level(0), 0);
  // Mode 2 is root of neither: falls back to rep 0 at its level there.
  const CsfTensor& for_middle = set.csf_for_mode(2, level);
  EXPECT_EQ(&for_middle, &set.csfs()[0]);
  EXPECT_GT(level, 0);
}

TEST(CsfSet, AllModeDispatchAlwaysRoot) {
  SparseTensor t = generate_synthetic(
      {.dims = {20, 30, 40}, .nnz = 800, .seed = 98});
  const CsfSet set(t, CsfPolicy::kAllMode, 1);
  for (int m = 0; m < 3; ++m) {
    int level = -1;
    (void)set.csf_for_mode(m, level);
    EXPECT_EQ(level, 0) << "mode " << m;
  }
}

TEST(CsfSet, EqualDimsTwoModeDedupes) {
  SparseTensor t = generate_synthetic(
      {.dims = {25, 25, 25}, .nnz = 700, .seed = 99});
  const CsfSet set(t, CsfPolicy::kTwoMode, 1);
  // Smallest and largest coincide: only one representation.
  EXPECT_EQ(set.csfs().size(), 1u);
}

TEST(CsfSet, SortTimeReported) {
  SparseTensor t = generate_synthetic(
      {.dims = {80, 80, 80}, .nnz = 20000, .seed = 100});
  double sort_seconds = 0.0;
  const CsfSet set(t, CsfPolicy::kAllMode, 2, &sort_seconds);
  EXPECT_GT(sort_seconds, 0.0);
}

TEST(CsfSet, MemoryBytesSumAcrossReps) {
  SparseTensor t = generate_synthetic(
      {.dims = {30, 40, 50}, .nnz = 1200, .seed = 101});
  SparseTensor t2 = t;
  const CsfSet one(t, CsfPolicy::kOneMode, 1);
  const CsfSet all(t2, CsfPolicy::kAllMode, 1);
  EXPECT_GT(all.memory_bytes(), one.memory_bytes());
}

}  // namespace
}  // namespace sptd
