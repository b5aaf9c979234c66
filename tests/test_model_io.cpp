// Tests for src/cpd/model_io: Kruskal model persistence.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "cpd/cpals.hpp"
#include "cpd/model_io.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

KruskalModel sample_model(std::uint64_t seed = 1) {
  Rng rng(seed);
  KruskalModel m;
  m.lambda = {1.5, 0.25, 3.75};
  m.factors.push_back(la::Matrix::random(7, 3, rng));
  m.factors.push_back(la::Matrix::random(5, 3, rng));
  m.factors.push_back(la::Matrix::random(9, 3, rng));
  return m;
}

TEST(ModelIo, RoundTripPreservesEverything) {
  const KruskalModel m = sample_model();
  std::ostringstream out;
  write_model(m, out);
  std::istringstream in(out.str());
  const KruskalModel back = read_model(in);
  ASSERT_EQ(back.order(), m.order());
  ASSERT_EQ(back.rank(), m.rank());
  for (idx_t r = 0; r < m.rank(); ++r) {
    EXPECT_DOUBLE_EQ(back.lambda[r], m.lambda[r]);
  }
  for (int mode = 0; mode < m.order(); ++mode) {
    EXPECT_EQ(back.factors[static_cast<std::size_t>(mode)].max_abs_diff(
                  m.factors[static_cast<std::size_t>(mode)]),
              0.0);
  }
}

TEST(ModelIo, FileRoundTrip) {
  const KruskalModel m = sample_model(2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sptd_model.txt").string();
  write_model_file(m, path);
  const KruskalModel back = read_model_file(path);
  std::remove(path.c_str());
  const idx_t c[] = {3, 2, 4};
  EXPECT_DOUBLE_EQ(back.value_at(c), m.value_at(c));
}

TEST(ModelIo, LoadedModelPredictsLikeOriginal) {
  // Decompose, save, load, and verify the loaded model reproduces the fit.
  SparseTensor x = generate_synthetic(
      {.dims = {20, 18, 16}, .nnz = 800, .seed = 3});
  const SparseTensor original = x;
  CpalsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(x, opts);

  std::ostringstream out;
  write_model(r.model, out);
  std::istringstream in(out.str());
  const KruskalModel loaded = read_model(in);
  EXPECT_NEAR(loaded.fit_to(original, 1), r.model.fit_to(original, 1),
              1e-12);
}

TEST(ModelIo, RejectsBadHeader) {
  std::istringstream in("not-a-model 1\n");
  EXPECT_THROW(read_model(in), Error);
}

TEST(ModelIo, RejectsWrongVersion) {
  std::istringstream in("sptd-kruskal 99\norder 2 rank 1\n");
  EXPECT_THROW(read_model(in), Error);
}

TEST(ModelIo, RejectsTruncatedFactors) {
  const KruskalModel m = sample_model(4);
  std::ostringstream out;
  write_model(m, out);
  std::string text = out.str();
  text.resize(text.size() / 2);  // cut mid-factor
  std::istringstream in(text);
  EXPECT_THROW(read_model(in), Error);
}

TEST(ModelIo, RejectsRankMismatchInFactor) {
  std::istringstream in(
      "sptd-kruskal 1\n"
      "order 1 rank 2\n"
      "lambda\n1 1\n"
      "factor 0 2 3\n"  // cols != rank
      "1 2 3\n4 5 6\n");
  EXPECT_THROW(read_model(in), Error);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(read_model_file("/nonexistent/model.txt"), Error);
}

TEST(ModelIo, V1LegacyFormatStillReadable) {
  // Models written before the checksummed v2 header must keep loading.
  std::istringstream in(
      "sptd-kruskal 1\n"
      "order 2 rank 2\n"
      "lambda\n1.5 0.5\n"
      "factor 0 2 2\n1 2\n3 4\n"
      "factor 1 3 2\n5 6\n7 8\n9 10\n");
  const KruskalModel m = read_model(in);
  ASSERT_EQ(m.order(), 2);
  ASSERT_EQ(m.rank(), 2);
  EXPECT_DOUBLE_EQ(m.lambda[0], 1.5);
  EXPECT_DOUBLE_EQ(m.factors[1](2, 1), 10.0);
}

TEST(ModelIo, WritesVersionedChecksummedHeader) {
  const KruskalModel m = sample_model(5);
  const std::string text = serialize_model(m);
  EXPECT_EQ(text.rfind("sptd-kruskal 2\nchecksum ", 0), 0u);
}

TEST(ModelIo, RejectsChecksumMismatch) {
  const KruskalModel m = sample_model(6);
  std::string text = serialize_model(m);
  // Corrupt one payload digit after the header lines.
  const std::size_t pos = text.find('\n', text.find("checksum")) + 10;
  ASSERT_LT(pos, text.size());
  text[pos] = (text[pos] == '7') ? '8' : '7';
  std::istringstream in(text);
  try {
    (void)read_model(in);
    FAIL() << "corrupt model was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos);
  }
}

TEST(ModelIo, RejectsTruncatedV2Payload) {
  const KruskalModel m = sample_model(7);
  std::string text = serialize_model(m);
  text.resize(text.size() - text.size() / 4);  // drop the tail
  std::istringstream in(text);
  EXPECT_THROW(read_model(in), Error);
}

// A declared size is checked against the body bytes left before anything
// is allocated, so a forged rank or factor shape fails with a structured
// error instead of std::bad_alloc: in a legacy v1 file, and in a v2 file
// whose checksum is correct.
TEST(ModelIo, HostileDeclaredSizesFailWithStructuredErrors) {
  const std::vector<std::string> bodies = {
      "order 1 rank 4000000000\nlambda\n1\n",
      "order 1 rank 1\nlambda\n1\nfactor 0 4000000000 1\n1\n",
  };
  for (const std::string& body : bodies) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(body)));
    for (const std::string& text :
         {"sptd-kruskal 1\n" + body,
          "sptd-kruskal 2\nchecksum " + std::string(hex) + "\n" + body}) {
      std::istringstream in(text);
      try {
        (void)read_model(in);
        FAIL() << "hostile model was accepted:\n" << text;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("read_model: "),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("declares 4000000000 values"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// Golden fixtures: the models golden_model builds, as an ostream at
// precision max_digits10 spells them (written once with such a writer and
// pasted below), so any byte the writer changes fails here. The values are
// seeded bit patterns plus those whose spelling is easiest to get wrong:
// signed zeros, subnormals, the largest and smallest normals and the
// general-notation switch points.
double golden_value(std::mt19937_64& gen, std::size_t k) {
  constexpr double kEdges[] = {0.0,
                               -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::max(),
                               -std::numeric_limits<double>::max(),
                               0.1,
                               1e16,
                               1e17,
                               1e21,
                               1e-5,
                               0.0001,
                               1.0};
  constexpr std::size_t kNumEdges = sizeof(kEdges) / sizeof(kEdges[0]);
  const std::uint64_t u = gen();
  if (k % 5 == 0) return kEdges[(k / 5) % kNumEdges];
  if (k % 5 == 1) {
    // A random bit pattern with the exponent's low bit cleared, so never
    // inf or nan: subnormals through huge exponents.
    const std::uint64_t bits = (u & 0x7fefffffffffffffULL) | (u & (1ULL << 63));
    return std::bit_cast<double>(bits);
  }
  // Factor-like magnitudes: biased exponent within +-40 of 1.0's.
  const std::uint64_t exp = 1023 - 40 + (u >> 52) % 81;
  return std::bit_cast<double>((u & (1ULL << 63)) | (exp << 52) |
                               (u & 0x000fffffffffffffULL));
}

KruskalModel golden_model(idx_t rank, const std::vector<idx_t>& rows,
                          std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::size_t k = 0;
  KruskalModel m;
  for (idx_t r = 0; r < rank; ++r) m.lambda.push_back(golden_value(gen, k++));
  for (const idx_t n : rows) {
    la::Matrix f(n, rank);
    for (idx_t i = 0; i < n; ++i) {
      for (idx_t j = 0; j < rank; ++j) f(i, j) = golden_value(gen, k++);
    }
    m.factors.push_back(std::move(f));
  }
  return m;
}

constexpr const char* kGoldenRank1 =
    "sptd-kruskal 2\n"
    "checksum 2582c7e6eb91ebab\n"
    "order 3 rank 1\n"
    "lambda\n"
    "0\n"
    "factor 0 1 1\n"
    "-7.7338840391814947e+28\n"
    "factor 1 3 1\n"
    "6.478355267543616e-10\n"
    "-9.6474749037397047e-05\n"
    "404506615083.98193\n"
    "factor 2 8 1\n"
    "-0\n"
    "-1.0539662107902644e+178\n"
    "-8213246116.6174707\n"
    "-41312847.620437272\n"
    "-1.6456543735208434e-10\n"
    "4.9406564584124654e-324\n"
    "2.1683668384470313e-187\n"
    "-1604249.7447061355\n";

constexpr const char* kGoldenRank35 =
    "sptd-kruskal 2\n"
    "checksum d8931116a7c102c2\n"
    "order 3 rank 35\n"
    "lambda\n"
    "0 -1.8517711247200389e+262 -2.8654802833406035e-05 "
    "-26.803566348063896 60472836.589630716 -0 37811729641.156952 "
    "-3.2298269352870651e-11 19436861728.302265 869168961.4791497 "
    "4.9406564584124654e-324 1.6620536717277243e-49 "
    "0.080547827301627253 8599312757.4884815 0.13338879225398956 "
    "-4.9406564584124654e-324 1.6252555113631719e-110 "
    "3.5288024092626415e-12 -860678749.14894438 -102587058.70622835 "
    "2.2250738585072014e-308 -4.0375960173721696e+124 "
    "0.00040250966829037622 1.6879045671245342e-07 -7288.3235255577165 "
    "1.7976931348623157e+308 3.3431254507363355e+44 "
    "6.6071294930819905e-12 84975.542599768363 1.9684370313437983e-08 "
    "-1.7976931348623157e+308 1.5818919712718841e-146 "
    "0.019850071275073298 4461386.398697556 1.1612073044095848e-09\n"
    "factor 0 3 35\n"
    "0.10000000000000001 1.0832620475069564e-306 4.3888700004197023 "
    "1753747646.2322752 988785993.3877939 10000000000000000 "
    "7.5928848162695272e-83 26742472.043653402 7.4237855290909622e-10 "
    "13.28078857231008 1e+17 1.6020420040880589e-285 "
    "7.1836797284266044e-06 182.68026505577427 7.869885819113179e-08 "
    "1e+21 9.3667560006197697e+294 -0.0045994654939982837 "
    "-2141.5763389918498 1.9779848001533089e-10 1.0000000000000001e-05 "
    "-6.5575902980915843e-57 -0.047550656633618703 794.71097190873104 "
    "-8.3631377024619429 0.0001 -6.7453780806364557e-16 "
    "30523315814.309494 2.6506172594778999e-11 6603.759053688821 1 "
    "4.4905100140501147e-300 -0.043991092242086229 -9707952.5173722114 "
    "166231495029.76138\n"
    "0 3.2146202886849183e+201 7.8777586792455726e-11 "
    "-1.2360359643123758e-09 1.7617538866387551e-05 -0 "
    "5.6209575048269218e+40 934890888184.60681 0.83730052366613472 "
    "1925.4134913910661 4.9406564584124654e-324 "
    "-6.6331678417576025e+184 0.018841936175435028 901.91242930442706 "
    "8.2247353397428034e-05 -4.9406564584124654e-324 "
    "2.2389137371579857e-263 114007820.10334875 "
    "-4.9879646529154025e-06 1.2341942425276841e-05 "
    "2.2250738585072014e-308 7.3001305900190282e+303 "
    "230123444.24057263 -945.08768181381129 -43920420578.242332 "
    "1.7976931348623157e+308 4.230222611129706e+287 "
    "-0.0005951493064210835 7.3797050730505536 0.00012836473812443774 "
    "-1.7976931348623157e+308 5.2760071500654656e-128 "
    "329472077.45367599 2.5753334171185573e-08 -0.001896524279956786\n"
    "0.10000000000000001 6.4651250932058944e+70 "
    "-2.7675671577058593e-08 1.335587250609402e-09 "
    "7.8910805543914516e-12 10000000000000000 -2.7235959719466786e-212 "
    "-0.00024350494869604408 2.0001666772016879e-10 "
    "2.1849899349089037e-05 1e+17 3.1767087964452937e+127 "
    "2.5967522399849301e-11 1588831889572.9045 0.060181798215511055 "
    "1e+21 -2.4182496495042086e+68 -100.25161710379399 "
    "266481013.23799124 -7999958559.7672443 1.0000000000000001e-05 "
    "-1.2590678308061108e-75 0.088246973118442915 "
    "2.8112598968320956e-07 1.9114686707227084e-08 0.0001 "
    "-1.3760738829513622e+90 0.0081468432970537245 "
    "-2.5211455792027002e-12 -0.0086012932731164473 1 "
    "1.3727464712364896e-178 -5.0359185081131111e-11 "
    "-4.6181992251356055e-05 -0.00017308257377920763\n"
    "factor 1 1 35\n"
    "0 4.2046465549081573e+54 -9.1944417612485656e-08 "
    "33360797325.510616 0.026559152946299909 -0 "
    "-3.3028294713863914e-233 4961612.9132573782 "
    "0.00014570750112792227 1.8694149320877171e-12 "
    "4.9406564584124654e-324 1.9807971949543864e+270 "
    "0.42689546999469508 -1.4462054029948894e-05 0.010764643989790499 "
    "-4.9406564584124654e-324 -2.9212105988528189e-77 "
    "-2140055733427.2151 -156.21720951271089 -0.00018285909324003595 "
    "2.2250738585072014e-308 1.3241289541443442e-52 23573.878409349669 "
    "9044987846.7658253 -13870.325355342622 1.7976931348623157e+308 "
    "-7.340425155625485e+67 2.2950501997080686e-07 "
    "5.2812418975694776e-07 -484269824051.37567 "
    "-1.7976931348623157e+308 -7.5271074347080479e-104 "
    "182.94915029794453 495151.16145487223 33229.685297193661\n"
    "factor 2 4 35\n"
    "0.10000000000000001 6.868367739567954e+37 -1.2494786538091123e-08 "
    "-1069358057417.0457 -161246.83181187045 10000000000000000 "
    "5.0443332193680955e+211 1.0696384358514098e-11 "
    "-1.2685487391780378e-10 0.00014194472809934895 1e+17 "
    "7.6238435408656088e+224 -499940.89743446215 "
    "-0.0025577186322913209 -2.4749683703101987e-08 1e+21 "
    "1.543920559193633e+28 1.6324578935299831e-06 294317243.98401314 "
    "1.4890781782338627e-07 1.0000000000000001e-05 "
    "-3.1596875235575412e+277 -4.836827892026745e-06 "
    "4475082275.5682373 -14631791867.729393 0.0001 "
    "2.4384802876503324e-242 -1261.3370924006626 -2087467353939.9692 "
    "-0.00057323573622993309 1 -0.54086847724157816 31965.886374512458 "
    "-8.8516934913066652e-12 1489001679.8681993\n"
    "0 -4.5846532166529026e-87 15078.39255693558 614.29074780227404 "
    "1.1965626147578174e-10 -0 -2.0038810417807718e+82 "
    "-4.2058557036007458e-12 -0.25734219173038769 "
    "1.7291548949717426e-06 4.9406564584124654e-324 "
    "8.9726963970278649e-283 -357.12456021877642 "
    "-4.9128689772781727e-05 0.0030414257533140556 "
    "-4.9406564584124654e-324 4.510119741188165e+140 "
    "-2.8606572109804014e-12 -5.1072257602165634e-05 "
    "4.2572229900637991e-07 2.2250738585072014e-308 "
    "3.6760771685736621e-197 -1101.7029666255228 0.24040722897848124 "
    "0.083544079301727386 1.7976931348623157e+308 "
    "2.1763575532426228e+291 -2.8614343547203808e-12 "
    "5.9665486686506622e-10 9.755915863133773e-13 "
    "-1.7976931348623157e+308 2.3297968249358398e+112 "
    "-1188.9009353756635 -0.00099606340648666913 -112542.21516118389\n"
    "0.10000000000000001 -3.5581377403404511e+124 "
    "6.8244028592923743e-07 0.0042306141336618521 -59506012727.94178 "
    "10000000000000000 -4.8198343704952641e-26 -4088.2959527220155 "
    "-0.017655450889225262 258595.9293875531 1e+17 "
    "-6.1989996447842751e+131 -1392445469.859458 3.756155824394332e-09 "
    "1.067700363833353e-07 1e+21 1.0436200632235803e+74 "
    "3.1560889483017334e-05 -0.19357277717496305 -253198.7541062512 "
    "1.0000000000000001e-05 3.8691976958053367e-161 "
    "-1.380201604231977e-05 -164.74026985203346 15655325.705452641 "
    "0.0001 7.1882764963080248e-190 2995.7768202862508 "
    "3995289805.5415168 1.4190956109034528e-07 1 "
    "-2.4601102954620159e+286 2955745.1473780209 "
    "0.00074189073681726544 -103761733663.0472\n"
    "0 -2.1262132713351525e+114 -1.0522154128509428e-09 "
    "-1.1071460877572717e-11 -508760022422.75262 -0 "
    "1.7217323333844429e+211 -204547452843.10022 -0.21374596230943266 "
    "-4.3066513383144261e-08 4.9406564584124654e-324 "
    "1.9758831036292266e+46 -136705962814.10085 0.0047527121814167029 "
    "-0.07953528527207214 -4.9406564584124654e-324 "
    "-1.6558596257434702e+31 603930120.33458066 8.9964349993517746e-09 "
    "8.425778454999165e-06 2.2250738585072014e-308 "
    "1.2013203963303909e+37 55910592681.544716 0.00089422279535206683 "
    "248842524771.02463 1.7976931348623157e+308 2.227312503647624e+291 "
    "-0.00047517145830294072 5.1302028600674215e-06 -16010630.28088293 "
    "-1.7976931348623157e+308 -2.0656125119583361e+144 "
    "0.0011960960386824297 61292638068.318451 -2.0002210880570082e-05\n";

struct Golden {
  const char* text;
  KruskalModel model;
};

std::vector<Golden> golden_models() {
  std::vector<Golden> out;
  out.push_back({kGoldenRank1, golden_model(1, {1, 3, 8}, 11)});
  out.push_back({kGoldenRank35, golden_model(35, {3, 1, 4}, 35)});
  return out;
}

// Factors with 1 and 3 rows leave some team slots without a row, and 7
// divides none of the row counts.
TEST(ModelIo, WriterReproducesGoldenBytesAtEveryTeamSize) {
  for (const Golden& g : golden_models()) {
    for (const int team : {1, 2, 3, 7}) {
      EXPECT_EQ(detail::serialize_model(g.model, team), g.text)
          << "team " << team;
    }
    EXPECT_EQ(serialize_model(g.model), g.text);
  }
}

TEST(ModelIo, ReadThenSerializeIsIdentityOnGolden) {
  for (const Golden& g : golden_models()) {
    std::istringstream in(g.text);
    EXPECT_EQ(serialize_model(read_model(in)), g.text);
  }
}

TEST(ModelIo, ExtremeValuesRoundTripBitExactly) {
  const double values[] = {std::numeric_limits<double>::denorm_min(), -0.0,
                           std::numeric_limits<double>::max()};
  KruskalModel m;
  m.lambda.assign(std::begin(values), std::end(values));
  la::Matrix f(1, 3);
  for (idx_t j = 0; j < 3; ++j) f(0, j) = values[j];
  m.factors.push_back(f);
  std::istringstream in(serialize_model(m));
  const KruskalModel back = read_model(in);
  for (idx_t j = 0; j < 3; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.lambda[j]),
              std::bit_cast<std::uint64_t>(values[j]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.factors[0](0, j)),
              std::bit_cast<std::uint64_t>(values[j]));
  }
}

// A v1 body whose first lambda value is \p token.
std::string v1_with_value(const std::string& token) {
  return "sptd-kruskal 1\norder 1 rank 2\nlambda\n" + token +
         " 2\nfactor 0 1 2\n3 4\n";
}

TEST(ModelIo, RejectsNonFiniteOverflowingAndTrailingJunkValues) {
  for (const std::string token : {"nan", "inf", "-inf", "1e400", "1.5x"}) {
    std::istringstream in(v1_with_value(token));
    try {
      (void)read_model(in);
      FAIL() << "value " << token << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("read_model: "), std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIo, ReadsSignedAndUnderflowingValuesLikeTheStreamReader) {
  const auto first_lambda = [](const std::string& token) {
    std::istringstream in(v1_with_value(token));
    return read_model(in).lambda[0];
  };
  EXPECT_EQ(first_lambda("+1.5"), 1.5);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first_lambda("1e-400")), 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first_lambda("-1e-400")),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_THROW(first_lambda("+-1.5"), Error);
}

}  // namespace
}  // namespace sptd
