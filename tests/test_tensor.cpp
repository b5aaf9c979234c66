// Tests for src/tensor: COO storage, dense oracle, .tns/.bin I/O,
// synthetic generators, dataset presets, statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"
#include "tensor/io.hpp"
#include "tensor/stats.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

SparseTensor tiny_tensor() {
  // 3x4x2 tensor with 4 nonzeros.
  SparseTensor t({3, 4, 2});
  const idx_t c0[] = {0, 0, 0};
  const idx_t c1[] = {1, 2, 1};
  const idx_t c2[] = {2, 3, 0};
  const idx_t c3[] = {1, 0, 1};
  t.push_back(c0, 1.5);
  t.push_back(c1, -2.0);
  t.push_back(c2, 3.25);
  t.push_back(c3, 0.5);
  return t;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------------------------------- coo

TEST(Coo, BasicProperties) {
  const SparseTensor t = tiny_tensor();
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 4u);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.dim(1), 4u);
  EXPECT_EQ(t.dim(2), 2u);
}

TEST(Coo, CoordReturnsPushedCoordinates) {
  const SparseTensor t = tiny_tensor();
  const auto c = t.coord(1);
  EXPECT_EQ(c[0], 1u);
  EXPECT_EQ(c[1], 2u);
  EXPECT_EQ(c[2], 1u);
}

TEST(Coo, ValidateAcceptsGoodTensor) {
  EXPECT_NO_THROW(tiny_tensor().validate());
}

TEST(Coo, ValidateRejectsNonFinite) {
  SparseTensor t({2, 2});
  const idx_t c[] = {0, 0};
  t.push_back(c, std::numeric_limits<val_t>::infinity());
  EXPECT_THROW(t.validate(), Error);
}

TEST(Coo, ZeroLengthModeRejected) {
  EXPECT_THROW(SparseTensor({3, 0, 2}), Error);
}

TEST(Coo, NormSq) {
  SparseTensor t({2, 2});
  const idx_t c0[] = {0, 0};
  const idx_t c1[] = {1, 1};
  t.push_back(c0, 3.0);
  t.push_back(c1, 4.0);
  EXPECT_DOUBLE_EQ(t.norm_sq(), 25.0);
}

TEST(Coo, SwapNonzerosSwapsAllArrays) {
  SparseTensor t = tiny_tensor();
  const auto a = t.coord(0);
  const auto b = t.coord(2);
  const val_t va = t.vals()[0];
  const val_t vb = t.vals()[2];
  t.swap_nonzeros(0, 2);
  EXPECT_EQ(t.coord(0), b);
  EXPECT_EQ(t.coord(2), a);
  EXPECT_EQ(t.vals()[0], vb);
  EXPECT_EQ(t.vals()[2], va);
}

TEST(Coo, CoordLessRespectsPermutation) {
  SparseTensor t({4, 4});
  const idx_t c0[] = {1, 3};
  const idx_t c1[] = {2, 0};
  t.push_back(c0, 1.0);
  t.push_back(c1, 1.0);
  const int fwd[] = {0, 1};
  const int rev[] = {1, 0};
  EXPECT_TRUE(t.coord_less(0, 1, fwd));   // 1 < 2 on mode 0
  EXPECT_FALSE(t.coord_less(0, 1, rev));  // 3 > 0 on mode 1
}

TEST(Coo, RemoveEmptySlicesCompactsDims) {
  SparseTensor t({10, 5});
  const idx_t c0[] = {2, 0};
  const idx_t c1[] = {7, 4};
  t.push_back(c0, 1.0);
  t.push_back(c1, 2.0);
  const auto maps = t.remove_empty_slices();
  EXPECT_EQ(t.dim(0), 2u);  // slices 2 and 7 remain
  EXPECT_EQ(t.dim(1), 2u);  // slices 0 and 4 remain
  EXPECT_EQ(t.ind(0)[0], 0u);
  EXPECT_EQ(t.ind(0)[1], 1u);
  EXPECT_EQ(maps[0][2], 0u);
  EXPECT_EQ(maps[0][7], 1u);
  EXPECT_EQ(maps[0][0], kIdxMax);  // empty slice has no mapping
}

TEST(Coo, RemoveEmptySlicesNoopWhenDense) {
  SparseTensor t({2, 2});
  for (idx_t i = 0; i < 2; ++i) {
    for (idx_t j = 0; j < 2; ++j) {
      const idx_t c[] = {i, j};
      t.push_back(c, 1.0);
    }
  }
  t.remove_empty_slices();
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 2u);
}

TEST(Coo, SwapStorageExchangesBuffers) {
  SparseTensor t = tiny_tensor();
  std::vector<uninit_vector<idx_t>> inds(3, uninit_vector<idx_t>(4, 0));
  uninit_vector<val_t> vals(4, 9.0);
  t.swap_storage(inds, vals);
  EXPECT_EQ(t.vals()[0], 9.0);
  EXPECT_EQ(vals[0], 1.5);  // old storage handed back
}

TEST(Coo, SwapStorageRejectsMismatchedLengths) {
  SparseTensor t = tiny_tensor();
  std::vector<uninit_vector<idx_t>> inds(3, uninit_vector<idx_t>(5, 0));
  uninit_vector<val_t> vals(4, 0.0);
  EXPECT_THROW(t.swap_storage(inds, vals), Error);
}

// ----------------------------------------------------------------- dense

TEST(Dense, FromCooPlacesValues) {
  const DenseTensor d = DenseTensor::from_coo(tiny_tensor());
  const idx_t c1[] = {1, 2, 1};
  EXPECT_DOUBLE_EQ(d.at(c1), -2.0);
  const idx_t zero[] = {0, 1, 0};
  EXPECT_DOUBLE_EQ(d.at(zero), 0.0);
}

TEST(Dense, DuplicateCoordinatesAccumulate) {
  SparseTensor t({2, 2});
  const idx_t c[] = {1, 1};
  t.push_back(c, 2.0);
  t.push_back(c, 3.0);
  const DenseTensor d = DenseTensor::from_coo(t);
  EXPECT_DOUBLE_EQ(d.at(c), 5.0);
}

TEST(Dense, NormSqMatchesCoo) {
  const SparseTensor t = tiny_tensor();
  const DenseTensor d = DenseTensor::from_coo(t);
  EXPECT_DOUBLE_EQ(d.norm_sq(), t.norm_sq());
}

TEST(Dense, MttkrpHandComputedExample) {
  // 2x2 matrix (order-2 tensor): MTTKRP mode 0 is X * A(1).
  SparseTensor t({2, 2});
  const idx_t c00[] = {0, 0};
  const idx_t c01[] = {0, 1};
  const idx_t c11[] = {1, 1};
  t.push_back(c00, 1.0);
  t.push_back(c01, 2.0);
  t.push_back(c11, 3.0);
  const DenseTensor d = DenseTensor::from_coo(t);
  std::vector<la::Matrix> factors;
  factors.emplace_back(2, 1, 1.0);
  factors.emplace_back(2, 1, 1.0);
  factors[1](1, 0) = 2.0;
  la::Matrix out(2, 1);
  d.mttkrp(0, factors, out);
  EXPECT_DOUBLE_EQ(out(0, 0), 1.0 * 1 + 2.0 * 2);  // 5
  EXPECT_DOUBLE_EQ(out(1, 0), 3.0 * 2);            // 6
}

TEST(Dense, FromKruskalRankOneOuterProduct) {
  std::vector<la::Matrix> factors;
  factors.emplace_back(2, 1);
  factors.emplace_back(3, 1);
  factors[0](0, 0) = 1.0;
  factors[0](1, 0) = 2.0;
  factors[1](0, 0) = 3.0;
  factors[1](1, 0) = 4.0;
  factors[1](2, 0) = 5.0;
  const val_t lambda[] = {2.0};
  const DenseTensor d = DenseTensor::from_kruskal(lambda, factors);
  const idx_t c[] = {1, 2};
  EXPECT_DOUBLE_EQ(d.at(c), 2.0 * 2.0 * 5.0);
}

TEST(Dense, RejectsHugeDensification) {
  EXPECT_THROW(DenseTensor({100000, 100000, 100000}), Error);
}

// -------------------------------------------------------------------- io

TEST(Io, ReadTnsParsesOneBasedIndices) {
  std::istringstream in(
      "# a comment line\n"
      "1 1 1 1.5\n"
      "2 3 2 -2.0\n"
      "\n"
      "3 4 1 3.25  # trailing comment\n");
  const SparseTensor t = read_tns(in);
  EXPECT_EQ(t.order(), 3);
  EXPECT_EQ(t.nnz(), 3u);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.dim(1), 4u);
  EXPECT_EQ(t.dim(2), 2u);
  EXPECT_EQ(t.ind(0)[1], 1u);  // 0-based internally
  EXPECT_DOUBLE_EQ(t.vals()[2], 3.25);
}

TEST(Io, ReadTnsRejectsInconsistentFieldCount) {
  std::istringstream in("1 1 1 1.0\n1 1 2.0\n");
  EXPECT_THROW(read_tns(in), Error);
}

TEST(Io, ReadTnsRejectsZeroIndex) {
  std::istringstream in("0 1 1 1.0\n");
  EXPECT_THROW(read_tns(in), Error);
}

TEST(Io, ReadTnsRejectsEmptyStream) {
  std::istringstream in("# only comments\n");
  EXPECT_THROW(read_tns(in), Error);
}

TEST(Io, TnsRoundTripPreservesEverything) {
  const SparseTensor t = tiny_tensor();
  std::ostringstream out;
  write_tns(t, out);
  std::istringstream in(out.str());
  const SparseTensor back = read_tns(in);
  ASSERT_EQ(back.nnz(), t.nnz());
  ASSERT_EQ(back.order(), t.order());
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    EXPECT_EQ(back.coord(x), t.coord(x));
    EXPECT_DOUBLE_EQ(back.vals()[x], t.vals()[x]);
  }
}

TEST(Io, ReadTnsStrictErrorsNameTheLine) {
  // Every strict-mode diagnostic pinpoints the offending 1-based line.
  const auto error_for = [](const char* text) {
    std::istringstream in(text);
    try {
      (void)read_tns(in);
      return std::string("<no error>");
    } catch (const Error& e) {
      return std::string(e.what());
    }
  };
  EXPECT_NE(error_for("1 1 1 1.0\n-2 1 1 1.0\n")
                .find("positive integer (mode 1) at line 2"),
            std::string::npos);
  EXPECT_NE(error_for("1 1 1 1.0\n1 2.5 1 1.0\n")
                .find("non-integer index (mode 2) at line 2"),
            std::string::npos);
  EXPECT_NE(error_for("1 1 1 1.0\n1 1 99999999999999999999 1.0\n")
                .find("overflows the index type (mode 3) at line 2"),
            std::string::npos);
  EXPECT_NE(error_for("1 1 1 1.0\n1 1 1 nan\n")
                .find("non-finite value at line 2"),
            std::string::npos);
  EXPECT_NE(error_for("1 1 1 1.0\n1 1 1 inf\n")
                .find("non-finite value at line 2"),
            std::string::npos);
  EXPECT_NE(error_for("1 1 1 1.0\n1 1 1.0\n")
                .find("expected 4 fields, got 3 at line 2"),
            std::string::npos);
  EXPECT_NE(error_for("1 1 1 1.0\n1 1 one 1.0\n").find("at line 2"),
            std::string::npos);
}

TEST(Io, ReadTnsLenientDropsAndCounts) {
  std::istringstream in(
      "1 1 1 1.5\n"
      "0 1 1 9.0\n"     // zero index: dropped
      "2 2 2 nan\n"     // non-finite value: dropped
      "2 2 2 2.5\n"
      "1 2 3.0\n"       // short line: dropped
      "3 1 2 -0.5\n");
  TnsReadStats stats;
  const SparseTensor t = read_tns(in, {.skip_bad_lines = true}, &stats);
  EXPECT_EQ(t.nnz(), 3u);
  EXPECT_EQ(stats.dropped, 3u);
  // first_error remembers the *first* diagnostic for the warning banner.
  EXPECT_NE(stats.first_error.find("positive integer (mode 1) at line 2"),
            std::string::npos);
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_DOUBLE_EQ(t.vals()[2], -0.5);
}

TEST(Io, ReadTnsLenientAllBadStillThrows) {
  // Dropping every line is a hard failure even in lenient mode, and the
  // message carries the drop count + first diagnostic for debugging.
  std::istringstream in("0 1 1 1.0\n1 1 1 nan\n");
  TnsReadStats stats;
  try {
    (void)read_tns(in, {.skip_bad_lines = true}, &stats);
    FAIL() << "empty lenient parse was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no valid nonzeros"), std::string::npos);
    EXPECT_NE(what.find("2 lines dropped"), std::string::npos);
  }
}

TEST(Io, ReadTnsLenientWithoutStatsPointerWorks) {
  std::istringstream in("1 1 2.0\nbad line\n2 2 4.0\n");
  const SparseTensor t = read_tns(in, {.skip_bad_lines = true});
  EXPECT_EQ(t.order(), 2);
  EXPECT_EQ(t.nnz(), 2u);
}

TEST(Io, TnsRoundTripLargeSynthetic) {
  const SparseTensor t = generate_synthetic(
      {.dims = {50, 40, 30}, .nnz = 2000, .seed = 5});
  const std::string path = temp_path("sptd_test_roundtrip.tns");
  write_tns_file(t, path);
  const SparseTensor back = read_tns_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.nnz(), t.nnz());
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    EXPECT_EQ(back.coord(x), t.coord(x));
    EXPECT_DOUBLE_EQ(back.vals()[x], t.vals()[x]);
  }
}

TEST(Io, BinRoundTripPreservesEverything) {
  const SparseTensor t = generate_synthetic(
      {.dims = {20, 30, 40, 10}, .nnz = 500, .seed = 6});
  const std::string path = temp_path("sptd_test_roundtrip.bin");
  write_bin_file(t, path);
  const SparseTensor back = read_bin_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.order(), 4);
  ASSERT_EQ(back.nnz(), t.nnz());
  ASSERT_EQ(back.dims(), t.dims());
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    EXPECT_EQ(back.coord(x), t.coord(x));
    EXPECT_EQ(back.vals()[x], t.vals()[x]);  // binary: bit-exact
  }
}

TEST(Io, BinRejectsBadMagic) {
  const std::string path = temp_path("sptd_test_bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTMAGIC and some junk";
  }
  EXPECT_THROW(read_bin_file(path), Error);
  std::remove(path.c_str());
}

/// Writes a .bin header (magic, order, nnz, dims) plus \p payload bytes.
void write_bin_header(const std::string& path, std::uint32_t order,
                      std::uint64_t nnz, std::size_t payload) {
  std::ofstream out(path, std::ios::binary);
  out.write("SPTDBIN1", 8);
  out.write(reinterpret_cast<const char*>(&order), sizeof(order));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  for (std::uint32_t m = 0; m < order; ++m) {
    const idx_t d = 4;
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  out << std::string(payload, '\0');
}

std::string bin_error(const std::string& path) {
  try {
    (void)read_bin_file(path);
  } catch (const Error& e) {
    return e.what();
  }
  return "<no error>";
}

TEST(Io, BinRejectsTruncatedFile) {
  // A valid file cut short anywhere fails with a structured error.
  const SparseTensor t = generate_synthetic(
      {.dims = {20, 30, 40}, .nnz = 100, .seed = 9});
  const std::string path = temp_path("sptd_test_truncated.bin");
  write_bin_file(t, path);
  const auto full = std::filesystem::file_size(path);
  for (const auto keep : {full - 1, full / 2, std::uintmax_t{30},
                          std::uintmax_t{21}, std::uintmax_t{10}}) {
    std::filesystem::resize_file(path, keep);
    EXPECT_THROW(read_bin_file(path), Error) << "kept " << keep << " bytes";
  }
  // Header intact, one nonzero's worth of payload missing.
  write_bin_header(path, 3, 2, 3 * sizeof(idx_t) + sizeof(val_t));
  EXPECT_NE(bin_error(path).find("declares 2 nonzeros but the file holds "
                                 "at most 1"),
            std::string::npos)
      << bin_error(path);
  std::remove(path.c_str());
}

TEST(Io, BinRejectsHugeDeclaredNnzBeforeAllocating) {
  // 2^40 declared nonzeros in a 28-byte file: rejected from the file size,
  // not by trying to zero-fill terabytes.
  const std::string path = temp_path("sptd_test_huge_nnz.bin");
  write_bin_header(path, 2, std::uint64_t{1} << 40, 0);
  ASSERT_EQ(std::filesystem::file_size(path), 28u);
  EXPECT_NE(bin_error(path).find("declares 1099511627776 nonzeros"),
            std::string::npos)
      << bin_error(path);
  // A header whose dims run past the end of the file.
  write_bin_header(path, 8, 0, 0);
  std::filesystem::resize_file(path, 30);
  EXPECT_NE(bin_error(path).find("truncated header"), std::string::npos)
      << bin_error(path);
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_tns_file("/nonexistent/path/file.tns"), Error);
  EXPECT_THROW(read_bin_file("/nonexistent/path/file.bin"), Error);
}

// -------------------------------------------------------------- synthetic

TEST(Synthetic, ExactNnzAndDims) {
  const SparseTensor t = generate_synthetic(
      {.dims = {100, 80, 60}, .nnz = 5000, .seed = 7});
  EXPECT_EQ(t.nnz(), 5000u);
  EXPECT_EQ(t.dims(), (dims_t{100, 80, 60}));
  t.validate();
}

TEST(Synthetic, CoordinatesAreUnique) {
  const SparseTensor t = generate_synthetic(
      {.dims = {30, 30, 30}, .nnz = 4000, .seed = 8});
  std::set<std::array<idx_t, kMaxOrder>> seen;
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    EXPECT_TRUE(seen.insert(t.coord(x)).second) << "duplicate at " << x;
  }
}

TEST(Synthetic, DeterministicInSeed) {
  const SyntheticConfig cfg{.dims = {50, 50, 50}, .nnz = 1000, .seed = 9};
  const SparseTensor a = generate_synthetic(cfg);
  const SparseTensor b = generate_synthetic(cfg);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (nnz_t x = 0; x < a.nnz(); ++x) {
    EXPECT_EQ(a.coord(x), b.coord(x));
    EXPECT_EQ(a.vals()[x], b.vals()[x]);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  const SparseTensor a = generate_synthetic(
      {.dims = {50, 50, 50}, .nnz = 500, .seed = 1});
  const SparseTensor b = generate_synthetic(
      {.dims = {50, 50, 50}, .nnz = 500, .seed = 2});
  int same = 0;
  for (nnz_t x = 0; x < a.nnz(); ++x) {
    if (a.coord(x) == b.coord(x)) ++same;
  }
  EXPECT_LT(same, 50);
}

TEST(Synthetic, ValuesInConfiguredRange) {
  const SparseTensor t = generate_synthetic({.dims = {40, 40},
                                             .nnz = 800,
                                             .seed = 10,
                                             .value_lo = 2.0,
                                             .value_hi = 3.0});
  for (const val_t v : t.vals()) {
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Synthetic, ZipfSkewConcentratesMass) {
  // With heavy skew, the most popular slice must hold far more nonzeros
  // than the uniform expectation.
  const SparseTensor t = generate_synthetic(
      {.dims = {1000, 1000, 1000}, .nnz = 20000, .seed = 11,
       .zipf_exponent = 1.1});
  std::vector<nnz_t> counts(1000, 0);
  for (const idx_t i : t.ind(0)) {
    ++counts[i];
  }
  const nnz_t top = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(top, 20u * 20000u / 1000u);  // >20x uniform share
}

TEST(Synthetic, RejectsOverfullRequest) {
  EXPECT_THROW(
      generate_synthetic({.dims = {4, 4}, .nnz = 12, .seed = 1}), Error);
}

TEST(Synthetic, LowRankIsExactlyRepresentable) {
  // Noise-free low-rank tensor must match its generating model when
  // densified (checked indirectly: nnz/dims and determinism here; CP
  // recovery is asserted in test_cpd).
  const SparseTensor t = generate_low_rank({20, 20, 20}, 3, 500, 0.0, 12);
  EXPECT_EQ(t.nnz(), 500u);
  t.validate();
  const SparseTensor t2 = generate_low_rank({20, 20, 20}, 3, 500, 0.0, 12);
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    EXPECT_EQ(t.vals()[x], t2.vals()[x]);
  }
}

TEST(Synthetic, HigherOrderGeneration) {
  const SparseTensor t = generate_synthetic(
      {.dims = {10, 12, 14, 16, 18}, .nnz = 2000, .seed = 13});
  EXPECT_EQ(t.order(), 5);
  EXPECT_EQ(t.nnz(), 2000u);
  t.validate();
}

// --------------------------------------------------------------- presets

TEST(Presets, TableOneHasFiveDatasets) {
  EXPECT_EQ(table1_presets().size(), 5u);
}

TEST(Presets, LookupByName) {
  const DatasetPreset& yelp = find_preset("yelp");
  EXPECT_EQ(yelp.dims, (dims_t{41000, 11000, 75000}));
  EXPECT_EQ(yelp.nnz, 8000000u);
  EXPECT_THROW(find_preset("unknown"), Error);
}

TEST(Presets, DensityMatchesTableOneOrderOfMagnitude) {
  // Table I: YELP 1.97e-7, NELL-2 2.4e-5 (with rounded dims we land close).
  EXPECT_NEAR(find_preset("yelp").density(), 2e-7, 1.5e-7);
  EXPECT_NEAR(find_preset("nell-2").density(), 2.4e-5, 1e-5);
}

TEST(Presets, ScaledPreservesLockDecisionRatio) {
  // dims[m]*T / nnz decides lock-vs-privatize; linear scaling of dims and
  // nnz preserves it (up to the floor clamps).
  const DatasetPreset& yelp = find_preset("yelp");
  const auto full = yelp.scaled(1.0);
  const auto small = yelp.scaled(0.05);
  const double ratio_full =
      static_cast<double>(full.dims[0]) / static_cast<double>(full.nnz);
  const double ratio_small =
      static_cast<double>(small.dims[0]) / static_cast<double>(small.nnz);
  EXPECT_NEAR(ratio_full, ratio_small, ratio_full * 0.05);
}

TEST(Presets, ScaledAppliesFloors) {
  const auto tiny = find_preset("yelp").scaled(1e-6);
  for (const idx_t d : tiny.dims) {
    EXPECT_GE(d, 64u);
  }
  EXPECT_GE(tiny.nnz, 10000u);
}

TEST(Presets, ScaleOutOfRangeThrows) {
  EXPECT_THROW(find_preset("yelp").scaled(0.0), Error);
  EXPECT_THROW(find_preset("yelp").scaled(1.5), Error);
}

// ----------------------------------------------------------------- stats

TEST(Stats, ComputesDensityAndSliceCounts) {
  const SparseTensor t = tiny_tensor();
  const TensorStats s = compute_stats(t);
  EXPECT_EQ(s.nnz, 4u);
  EXPECT_DOUBLE_EQ(s.density, 4.0 / (3 * 4 * 2));
  ASSERT_EQ(s.modes.size(), 3u);
  EXPECT_EQ(s.modes[0].nonempty, 3u);
  EXPECT_EQ(s.modes[0].max_slice_nnz, 2u);  // slice 1 has two nonzeros
  EXPECT_GT(s.tns_bytes, 0u);
}

TEST(Stats, FormatDims) {
  EXPECT_EQ(format_dims({41000, 11000, 75000}), "41k x 11k x 75k");
  EXPECT_EQ(format_dims({480000, 18000, 2000}), "480k x 18k x 2k");
  EXPECT_EQ(format_dims({12, 9}), "12 x 9");
}

TEST(Stats, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(10 * 1024), "10 KB");
  EXPECT_EQ(format_bytes(240ULL << 20), "240 MB");
  EXPECT_EQ(format_bytes(3ULL << 30), "3.00 GB");
}

}  // namespace
}  // namespace sptd
