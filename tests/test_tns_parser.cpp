// Differential and block-boundary tests for the block-buffered .tns
// parser (src/tensor/io.cpp). The oracle is the line-at-a-time strtod
// reader the parser replaced, kept here verbatim: every input must give
// the same tensor bits, the same strict-mode exception text and the same
// lenient-mode drop count and first diagnostic.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tensor/coo.hpp"
#include "tensor/io.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

// ------------------------------------------------------------------ oracle

SparseTensor oracle_read_tns(std::istream& in, const TnsReadOptions& opts,
                             TnsReadStats* stats) {
  std::vector<std::vector<idx_t>> inds;
  std::vector<val_t> vals;
  dims_t dims;
  int order = -1;
  TnsReadStats local_stats;
  TnsReadStats& st = stats != nullptr ? *stats : local_stats;
  st = TnsReadStats{};

  const auto bad = [&](const std::string& msg) {
    if (!opts.skip_bad_lines) {
      throw Error(msg);
    }
    if (st.dropped == 0) {
      st.first_error = msg;
    }
    ++st.dropped;
  };

  std::string line;
  nnz_t lineno = 0;
  std::vector<double> fields;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string at = " at line " + std::to_string(lineno);
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    fields.clear();
    const char* p = line.c_str();
    char* end = nullptr;
    bool tokens_ok = true;
    while (true) {
      while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
      if (*p == '\0') break;
      const double v = std::strtod(p, &end);
      if (end == p) {
        tokens_ok = false;
        break;
      }
      fields.push_back(v);
      p = end;
    }
    if (!tokens_ok) {
      bad("read_tns: bad token" + at);
      continue;
    }
    if (fields.empty()) continue;

    if (order < 0) {
      const int inferred = static_cast<int>(fields.size()) - 1;
      if (inferred < 1 || inferred > kMaxOrder) {
        bad("read_tns: unsupported order" + at);
        continue;
      }
      order = inferred;
      inds.resize(static_cast<std::size_t>(order));
      dims.assign(static_cast<std::size_t>(order), 0);
    }
    if (static_cast<int>(fields.size()) != order + 1) {
      bad("read_tns: expected " + std::to_string(order + 1) +
          " fields, got " + std::to_string(fields.size()) + at);
      continue;
    }
    bool line_ok = true;
    for (int m = 0; m < order && line_ok; ++m) {
      const double f = fields[static_cast<std::size_t>(m)];
      if (!(f >= 1.0)) {
        bad("read_tns: index must be a positive integer (mode " +
            std::to_string(m + 1) + ")" + at);
        line_ok = false;
      } else if (f > static_cast<double>(kIdxMax)) {
        bad("read_tns: index overflows the index type (mode " +
            std::to_string(m + 1) + ")" + at);
        line_ok = false;
      } else if (f != std::floor(f)) {
        bad("read_tns: non-integer index (mode " + std::to_string(m + 1) +
            ")" + at);
        line_ok = false;
      }
    }
    if (line_ok && !std::isfinite(fields.back())) {
      bad("read_tns: non-finite value" + at);
      line_ok = false;
    }
    if (!line_ok) continue;
    for (int m = 0; m < order; ++m) {
      const double f = fields[static_cast<std::size_t>(m)];
      const auto i = static_cast<idx_t>(f) - 1;
      inds[static_cast<std::size_t>(m)].push_back(i);
      auto& d = dims[static_cast<std::size_t>(m)];
      if (i + 1 > d) d = i + 1;
    }
    vals.push_back(static_cast<val_t>(fields.back()));
  }
  SPTD_CHECK(order > 0 && !vals.empty(),
             st.dropped > 0
                 ? "read_tns: no valid nonzeros (" +
                       std::to_string(st.dropped) +
                       " lines dropped; first: " + st.first_error + ")"
                 : "read_tns: no nonzeros found");

  SparseTensor t(dims);
  t.reserve(vals.size());
  std::array<idx_t, kMaxOrder> c{};
  for (nnz_t x = 0; x < vals.size(); ++x) {
    for (int m = 0; m < order; ++m) {
      c[static_cast<std::size_t>(m)] = inds[static_cast<std::size_t>(m)][x];
    }
    t.push_back({c.data(), static_cast<std::size_t>(order)}, vals[x]);
  }
  return t;
}

// ------------------------------------------------------------- harness

/// Everything a read produces, with values as raw bits.
struct Outcome {
  std::string error;  ///< exception text; empty when the read succeeded
  nnz_t dropped = 0;
  std::string first_error;
  dims_t dims;
  std::vector<std::vector<idx_t>> inds;
  std::vector<std::uint64_t> val_bits;

  bool operator==(const Outcome&) const = default;

  friend void PrintTo(const Outcome& o, std::ostream* os) {
    *os << "{error=\"" << o.error << "\", dropped=" << o.dropped
        << ", first_error=\"" << o.first_error
        << "\", nnz=" << o.val_bits.size() << "}";
  }
};

template <typename Reader>
Outcome outcome_of(const std::string& text, bool lenient, Reader&& read) {
  Outcome o;
  std::istringstream in(text);
  const TnsReadOptions opts{.skip_bad_lines = lenient};
  TnsReadStats stats;
  TnsReadStats* stats_out = &stats;
  try {
    const SparseTensor t = read(in, opts, stats_out);
    o.dims = t.dims();
    for (int m = 0; m < t.order(); ++m) {
      o.inds.emplace_back(t.ind(m).begin(), t.ind(m).end());
    }
    for (const val_t v : t.vals()) {
      o.val_bits.push_back(std::bit_cast<std::uint64_t>(v));
    }
  } catch (const Error& e) {
    // An SPTD_CHECK failure prefixes its message with the checked
    // expression and source location; compare only the message.
    o.error = e.what();
    if (const auto dash = o.error.find(" — "); dash != std::string::npos) {
      o.error.erase(0, dash + std::string(" — ").size());
    }
  }
  o.dropped = stats.dropped;
  o.first_error = stats.first_error;
  return o;
}

Outcome oracle(const std::string& text, bool lenient) {
  return outcome_of(text, lenient, [](auto&... a) {
    return oracle_read_tns(a...);
  });
}

Outcome parsed(const std::string& text, bool lenient) {
  return outcome_of(text, lenient, [](auto&... a) { return read_tns(a...); });
}

Outcome parsed_blocks(const std::string& text, bool lenient,
                      std::size_t block_bytes, int team) {
  return outcome_of(text, lenient, [&](auto&... a) {
    return detail::read_tns_blocks(a..., block_bytes, team);
  });
}

std::string show(const std::string& text) {
  std::string s;
  for (const char c : text) {
    if (c == '\n') {
      s += "\\n";
    } else if (c == '\r') {
      s += "\\r";
    } else if (c == '\t') {
      s += "\\t";
    } else if (c == '\v') {
      s += "\\v";
    } else {
      s += c;
    }
  }
  return s;
}

// --------------------------------------------------------- differential

/// Tokens the fast path must hand to strtod, or must agree with it on.
const std::vector<std::string>& shaped_tokens() {
  static const std::vector<std::string> kTokens = {
      // the fallback shapes
      "+3", "1e3", "3.0", "0x1p3", "-2", "inf", "-inf", "nan", "INF",
      "12345678901234567890123", "000000000000000000000000000000002",
      "18446744073709551616", "4294967295", "4294967296", "999999999999999999",
      "9999999999999999999",
      // 17-digit values and the edges of double
      "0.12345678901234567", "1.2345678901234567e-5", "98765432109876543",
      "-0.0", "4.9e-324", "2.4e-324", "1e-400", "1e400",
      "1.7976931348623157e308", "2.2250738585072011e-308",
      // tokens that stop early or not at all
      "5#x", "1.5abc", "1e", "1e+", "-", ".", ".5", "5.", "abc", "0x", "1,5",
      "\v7", "7\v", "\f2",
      // plain shapes
      "0", "1", "2", "3", "007", "1.0", "2.5", "-1.25", "1E-2"};
  return kTokens;
}

std::string random_line(std::mt19937_64& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto& tokens = shaped_tokens();
  static const char* const kSeps[] = {" ", "\t", "  ", " \t ", "\t\t"};
  std::string line;
  switch (pick(10)) {
    case 0:
      return pick(2) == 0 ? "" : " \t ";  // blank
    case 1:
      return "# comment only 1 2 3";
    default:
      break;
  }
  if (pick(4) == 0) line += kSeps[pick(5)];
  // Mostly well-formed order-3 lines, so most corpora get past inference
  // and exercise the per-line checks.
  std::size_t fields = 4;
  if (pick(8) == 0) fields = 1 + pick(10);
  for (std::size_t k = 0; k < fields; ++k) {
    if (k > 0) line += kSeps[pick(5)];
    if (pick(6) == 0) {
      line += tokens[pick(tokens.size())];
    } else if (k + 1 < fields) {
      line += std::to_string(1 + pick(40));
    } else {
      line += std::to_string(static_cast<double>(pick(100000)) / 64.0 - 700.0);
    }
  }
  if (pick(6) == 0) line += kSeps[pick(5)];
  if (pick(8) == 0) line += " # trailing 9 9 9";
  return line;
}

std::string random_corpus(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string text;
  const std::size_t lines = 1 + rng() % 40;
  for (std::size_t l = 0; l < lines; ++l) {
    text += random_line(rng);
    if (l + 1 < lines || rng() % 3 != 0) {  // sometimes no final newline
      text += rng() % 4 == 0 ? "\r\n" : "\n";
    }
  }
  return text;
}

TEST(TnsParser, EveryShapedTokenMatchesStrtod) {
  // Each token alone as a value, and as an index, on an otherwise valid
  // line after a valid first line.
  for (const std::string& tok : shaped_tokens()) {
    for (const std::string& line : {"1 1 1 " + tok, "1 " + tok + " 1 2.0",
                                    tok + " 1 1 2.0", tok}) {
      const std::string text = "2 2 2 1.0\n" + line + "\n";
      for (const bool lenient : {false, true}) {
        EXPECT_EQ(parsed(text, lenient), oracle(text, lenient))
            << "input: " << show(text) << " lenient=" << lenient;
      }
    }
  }
}

TEST(TnsParser, SeededCorpusMatchesOracle) {
  int strict_throws = 0;
  int lenient_drops = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const std::string text = random_corpus(seed);
    for (const bool lenient : {false, true}) {
      const Outcome want = oracle(text, lenient);
      ASSERT_EQ(parsed(text, lenient), want)
          << "seed " << seed << " lenient=" << lenient
          << " input: " << show(text);
      ASSERT_EQ(parsed_blocks(text, lenient, 64, 3), want)
          << "seed " << seed << " lenient=" << lenient
          << " (64-byte blocks, team 3) input: " << show(text);
      strict_throws += !lenient && !want.error.empty() ? 1 : 0;
      lenient_drops += lenient && want.dropped > 0 ? 1 : 0;
    }
  }
  // The corpus must reach both the error paths and the success path.
  EXPECT_GT(strict_throws, 50);
  EXPECT_LT(strict_throws, 400);
  EXPECT_GT(lenient_drops, 50);
}

TEST(TnsParser, LineEndingAndCommentShapesMatchOracle) {
  const std::vector<std::string> texts = {
      "1 1 2.0\r\n2 2 3.0\r\n",
      "1\t1\t2.0\n\t2 2\t3.0\t\n",
      "# header\n\n   \n#\n1 2 3 4.5\n# tail",
      "1 2 3 4.5",                 // no trailing newline
      "1 2 3 4.5\n\n\n",           // trailing blank lines
      "\n\n\n1 2 3 4.5\n",         // leading blank lines
      "1 2 3 4.5 #c\n1 1 1 5#x\n",
      "1\n1 2 3 4 5 6 7 8 9 10\n2 2 1.0\n",  // unsupported orders first
      "x y\n1 1 1.0\n",                      // bad token before inference
      std::string("1 1 2.0\n1 1\0 5 3.0\n", 20),  // NUL ends a line
  };
  for (const std::string& text : texts) {
    for (const bool lenient : {false, true}) {
      EXPECT_EQ(parsed(text, lenient), oracle(text, lenient))
          << "input: " << show(text) << " lenient=" << lenient;
    }
  }
}

// ------------------------------------------------ block and team seams

/// A corpus of lines of varied length: short lines, lines straddling the
/// 64-byte block boundary, and one line longer than two blocks.
std::string boundary_corpus() {
  std::string text;
  for (int i = 1; i <= 40; ++i) {
    text += std::to_string(i % 7 + 1) + " " + std::to_string(i % 5 + 1) + " " +
            std::to_string(i) + " " + std::to_string(i * 0.375) + "\n";
    if (i % 9 == 0) text += "# a comment that takes up some room\n";
    if (i == 17) {
      text += "3 3 3 " + std::string(150, ' ') + "1.0000000000000002\n";
    }
  }
  return text;
}

TEST(TnsParser, BlockAndTeamSizesGiveIdenticalTensors) {
  const std::string text = boundary_corpus();
  ASSERT_GT(text.size(), 10 * 64u);
  const Outcome want = oracle(text, false);
  ASSERT_TRUE(want.error.empty()) << want.error;
  for (const std::size_t block : {std::size_t{64}, std::size_t{65},
                                  std::size_t{100}, std::size_t{4096}}) {
    for (int team = 1; team <= 4; ++team) {
      EXPECT_EQ(parsed_blocks(text, false, block, team), want)
          << "block " << block << " team " << team;
      // Without the final newline the last line still counts.
      const std::string cut = text.substr(0, text.size() - 1);
      EXPECT_EQ(parsed_blocks(cut, false, block, team), oracle(cut, false))
          << "block " << block << " team " << team << " (no final newline)";
    }
  }
  // A block size that divides the input exactly.
  const std::string exact = "1 1 1 1.5\n" + std::string(53, ' ') + "\n" +
                            "2 2 2 2.5\n" + std::string(53, ' ') + "\n";
  ASSERT_EQ(exact.size(), 128u);
  for (int team = 1; team <= 4; ++team) {
    EXPECT_EQ(parsed_blocks(exact, false, 64, team), oracle(exact, false));
  }
}

TEST(TnsParser, LenientDropAfterFirstBlockReportsGlobalLine) {
  std::string text = boundary_corpus();
  // Replace the start of line 30 (well past the first 64-byte block) with
  // a zero index, and make line 33 a bad token.
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  text.replace(starts[29], 1, "0");
  text.replace(starts[32], 1, "z");
  ASSERT_GT(starts[29], 64u);
  const Outcome want = oracle(text, true);
  ASSERT_EQ(want.dropped, 2u);
  ASSERT_NE(want.first_error.find("at line 30"), std::string::npos)
      << want.first_error;
  for (int team = 1; team <= 4; ++team) {
    EXPECT_EQ(parsed_blocks(text, true, 64, team), want) << "team " << team;
    // Strict mode throws the same text at the same global line.
    const Outcome strict = parsed_blocks(text, false, 64, team);
    EXPECT_EQ(strict, oracle(text, false)) << "team " << team;
    EXPECT_NE(strict.error.find("positive integer (mode 1) at line 30"),
              std::string::npos)
        << strict.error;
  }
}

TEST(TnsParser, ParallelPiecesMatchOracle) {
  // Blocks large enough that every team size really runs its pieces
  // concurrently, with bad lines scattered across blocks and pieces.
  const SparseTensor t = generate_synthetic(
      {.dims = {300, 200, 100}, .nnz = 30000, .seed = 11});
  std::ostringstream out;
  write_tns(t, out);
  std::string text = out.str();
  ASSERT_GT(text.size(), 4 * (std::size_t{128} << 10));
  for (std::size_t at = 1000; at < text.size(); at += 97'003) {
    const std::size_t line = text.find('\n', at) + 1;
    text.insert(line, "1 1 0.5 2.0\n");  // non-integer index
  }
  for (const bool lenient : {false, true}) {
    const Outcome want = oracle(text, lenient);
    EXPECT_EQ(want.error.empty(), lenient);
    for (int team = 1; team <= 4; ++team) {
      EXPECT_EQ(parsed_blocks(text, lenient, std::size_t{256} << 10, team),
                want)
          << "team " << team << " lenient=" << lenient;
    }
  }
}

}  // namespace
}  // namespace sptd
