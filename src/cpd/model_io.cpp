#include "cpd/model_io.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fileio.hpp"
#include "common/format.hpp"
#include "parallel/team.hpp"

namespace sptd {

namespace {

/// A v2 file opens with "sptd-kruskal 2\nchecksum <16 hex digits>\n"; the
/// checksum covers the body, everything after. The v1 format was the same
/// body behind a bare "sptd-kruskal 1" line.
constexpr std::size_t kHeaderBytes = 41;

/// Worst case of one value and the separator (or newline) after it.
constexpr std::size_t kValueBytes = kMaxDoubleChars + 1;

/// Room for the "order ... lambda" lines or one "factor ..." line: at most
/// three integers of ten digits each plus the keywords and separators.
constexpr std::size_t kLineBytes = 64;

/// Worst case of one row of \p cols values, newline included.
std::size_t row_bytes(idx_t cols) {
  return std::size_t{cols} * kValueBytes + 1;
}

/// One line of \p n space-separated values.
char* put_row(char* p, const val_t* v, idx_t n) {
  for (idx_t j = 0; j < n; ++j) {
    if (j) *p++ = ' ';
    p = format_double(p, v[j]);
  }
  *p++ = '\n';
  return p;
}

/// Writes \p f's rows at \p p on a team of \p team workers and returns one
/// past the last byte. Chunk k formats rows [lo, hi) starting at
/// lo * row_bytes, so the chunks never overlap; they are then moved left in
/// order to close the gaps between them.
char* put_factor_rows(char* p, const la::Matrix& f, int team) {
  const auto chunks = static_cast<std::size_t>(team);
  const std::uint64_t rows = f.rows();
  const std::size_t slot = row_bytes(f.cols());
  const auto lo = [&](std::size_t k) {
    return static_cast<idx_t>(rows * k / chunks);
  };
  std::vector<char*> ends(chunks);
  parallel_region(team, [&](int tid, int nt) {
    for (auto k = static_cast<std::size_t>(tid); k < chunks;
         k += static_cast<std::size_t>(nt)) {
      char* q = p + lo(k) * slot;
      for (idx_t i = lo(k); i < lo(k + 1); ++i) {
        q = put_row(q, f.row_ptr(i), f.cols());
      }
      ends[k] = q;
    }
  });
  char* out = ends[0];
  for (std::size_t k = 1; k < chunks; ++k) {
    const char* from = p + lo(k) * slot;
    const auto n = static_cast<std::size_t>(ends[k] - from);
    std::memmove(out, from, n);
    out += n;
  }
  return out;
}

/// Whitespace-separated tokens of a string, split as operator>> splits
/// them, with the read position exposed for the declared-size bound.
class Tokens {
 public:
  explicit Tokens(std::string_view s)
      : p_(s.data()), end_(s.data() + s.size()) {}

  /// The next token; empty at end of input.
  std::string_view next() {
    while (p_ != end_ && is_space(*p_)) ++p_;
    const char* begin = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  /// Bytes after the read position.
  [[nodiscard]] std::size_t left() const {
    return static_cast<std::size_t>(end_ - p_);
  }

  /// Everything after the next newline (empty if there is none), as
  /// getline leaves a stream.
  [[nodiscard]] std::string_view rest_after_line() const {
    const char* nl = static_cast<const char*>(std::memchr(p_, '\n', left()));
    return nl ? std::string_view(nl + 1, static_cast<std::size_t>(end_ - nl - 1))
              : std::string_view();
  }

  /// Everything after the read position.
  [[nodiscard]] std::string_view rest() const { return {p_, left()}; }

 private:
  static bool is_space(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }

  const char* p_;
  const char* end_;
};

/// operator>> takes one '+' before a number; from_chars takes none.
std::string_view skip_plus(std::string_view tok) {
  if (tok.size() > 1 && tok[0] == '+' && tok[1] != '-') tok.remove_prefix(1);
  return tok;
}

/// A whole token as an integer.
template <typename Int>
bool parse_int(std::string_view tok, Int& v, int base = 10) {
  tok = skip_plus(tok);
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v, base);
  return !tok.empty() && ec == std::errc() && end == tok.data() + tok.size();
}

/// A whole token as a finite double, accepting what operator>> accepts: a
/// leading '+' is allowed, nan and inf are not, overflow fails and
/// underflow reads as strtod rounds it (to a signed zero or subnormal).
bool parse_value(std::string_view tok, val_t& v) {
  tok = skip_plus(tok);
  const char* end = tok.data() + tok.size();
  const auto [stop, ec] =
      std::from_chars(tok.data(), end, v, std::chars_format::general);
  if (stop != end) return false;
  if (ec == std::errc::result_out_of_range) {
    v = std::strtod(std::string(tok).c_str(), nullptr);
  } else if (ec != std::errc()) {
    return false;
  }
  return std::isfinite(v);
}

/// Parses the body shared by v1 and v2. Every declared size is checked
/// against the unread bytes before anything is allocated: each value
/// needs at least a digit and a separator, so a size above half of what
/// is left cannot be honest.
KruskalModel read_model_body(std::string_view body) {
  Tokens in(body);
  const auto check_fits = [&](std::uint64_t values, const std::string& what) {
    const std::uint64_t left = in.left();
    SPTD_CHECK(values <= left / 2,
               "read_model: " + what + " declares " + std::to_string(values) +
                   " values but only " + std::to_string(left) +
                   " bytes of the body remain");
  };
  int order = 0;
  idx_t rank = 0;
  SPTD_CHECK(in.next() == "order" && parse_int(in.next(), order) &&
                 in.next() == "rank" && parse_int(in.next(), rank) &&
                 order >= 1 && order <= kMaxOrder && rank >= 1,
             "read_model: bad order/rank line");

  KruskalModel model;
  SPTD_CHECK(in.next() == "lambda", "read_model: missing lambda section");
  check_fits(rank, "rank");
  model.lambda.resize(rank);
  for (idx_t r = 0; r < rank; ++r) {
    SPTD_CHECK(parse_value(in.next(), model.lambda[r]),
               "read_model: truncated lambda");
  }

  for (int m = 0; m < order; ++m) {
    int mode = -1;
    idx_t rows = 0, cols = 0;
    SPTD_CHECK(in.next() == "factor" && parse_int(in.next(), mode) &&
                   parse_int(in.next(), rows) && parse_int(in.next(), cols) &&
                   mode == m && rows >= 1 && cols == rank,
               "read_model: bad factor header for mode " +
                   std::to_string(m));
    check_fits(std::uint64_t{rows} * cols, "factor " + std::to_string(m));
    la::Matrix f(rows, cols);
    for (idx_t i = 0; i < rows; ++i) {
      val_t* row = f.row_ptr(i);
      for (idx_t j = 0; j < cols; ++j) {
        SPTD_CHECK(parse_value(in.next(), row[j]),
                   "read_model: truncated factor " + std::to_string(m));
      }
    }
    model.factors.push_back(std::move(f));
  }
  return model;
}

}  // namespace

namespace detail {

std::string serialize_model(const KruskalModel& model, int team) {
  SPTD_CHECK(team >= 1, "serialize_model: team size must be at least 1");
  std::size_t bound = kHeaderBytes + kLineBytes + row_bytes(model.rank());
  for (const la::Matrix& f : model.factors) {
    bound += kLineBytes + std::size_t{f.rows()} * row_bytes(f.cols());
  }
  std::string out(bound, '\0');
  char* const body = out.data() + kHeaderBytes;
  char* p = body;
  p += std::snprintf(p, kLineBytes, "order %d rank %" PRIu32 "\nlambda\n",
                     model.order(), model.rank());
  p = put_row(p, model.lambda.data(), model.rank());
  for (int m = 0; m < model.order(); ++m) {
    const la::Matrix& f = model.factors[static_cast<std::size_t>(m)];
    p += std::snprintf(p, kLineBytes, "factor %d %" PRIu32 " %" PRIu32 "\n",
                       m, f.rows(), f.cols());
    p = put_factor_rows(p, f, team);
  }
  const auto size = static_cast<std::size_t>(p - body);

  char head[kHeaderBytes + 1];
  std::snprintf(head, sizeof(head), "sptd-kruskal 2\nchecksum %016" PRIx64 "\n",
                fnv1a64(body, size));
  std::memcpy(out.data(), head, kHeaderBytes);
  out.resize(kHeaderBytes + size);
  return out;
}

}  // namespace detail

std::string serialize_model(const KruskalModel& model) {
  return detail::serialize_model(model, hardware_threads());
}

void write_model(const KruskalModel& model, std::ostream& out) {
  out << serialize_model(model);
}

void write_model_file(const KruskalModel& model, const std::string& path) {
  atomic_write_file(path, serialize_model(model));
}

KruskalModel read_model(std::istream& in) {
  std::ostringstream all;
  all << in.rdbuf();
  const std::string text = all.str();
  Tokens tokens(text);
  int version = 0;
  SPTD_CHECK(tokens.next() == "sptd-kruskal" &&
                 parse_int(tokens.next(), version),
             "read_model: bad header (not an sptd-kruskal file)");
  SPTD_CHECK(version == 1 || version == 2,
             "read_model: unsupported version " + std::to_string(version));
  if (version == 1) return read_model_body(tokens.rest());

  // v2: the body is everything after the checksum line.
  SPTD_CHECK(tokens.next() == "checksum", "read_model: missing checksum line");
  const std::string_view hex = tokens.next();
  std::uint64_t expected = 0;
  SPTD_CHECK(hex.size() == 16 && parse_int(hex, expected, 16),
             "read_model: malformed checksum");
  const std::string_view body = tokens.rest_after_line();
  SPTD_CHECK(fnv1a64(body) == expected,
             "read_model: checksum mismatch (file corrupt or truncated)");
  return read_model_body(body);
}

KruskalModel read_model_file(const std::string& path) {
  std::ifstream in(path);
  SPTD_CHECK(in.good(), "read_model_file: cannot open " + path);
  return read_model(in);
}

}  // namespace sptd
