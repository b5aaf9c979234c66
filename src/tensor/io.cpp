#include "tensor/io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "parallel/team.hpp"

namespace sptd {

namespace {

constexpr char kBinMagic[8] = {'S', 'P', 'T', 'D', 'B', 'I', 'N', '1'};

/// Bytes read from the stream per block. Large enough that one team
/// launch per block is noise, small enough to stay a constant buffer.
constexpr std::size_t kTnsBlockBytes = std::size_t{4} << 20;

/// Blocks shorter than this parse on the calling thread: a team launch
/// would cost more than it saves.
constexpr std::size_t kMinParallelBytes = std::size_t{64} << 10;

/// Digit runs up to this length are exact in a uint64_t, and converting
/// that integer to double rounds exactly as strtod rounds the decimal.
constexpr std::ptrdiff_t kMaxFastDigits = 18;

/// Why a line was rejected (or kOk / kBlank). The diagnostic text is
/// built only once the line's global number is known.
enum class LineFault : std::uint8_t {
  kOk,
  kBlank,
  kBadToken,
  kOrder,
  kFieldCount,
  kNotPositive,
  kOverflow,
  kNonInteger,
  kNonFinite,
};

struct LineError {
  LineFault fault = LineFault::kOk;
  std::size_t arg = 0;  ///< 1-based mode, or the field count
  nnz_t line = 0;       ///< 1-based line number
};

std::string describe(const LineError& e, int order) {
  const std::string at = " at line " + std::to_string(e.line);
  const std::string mode = " (mode " + std::to_string(e.arg) + ")";
  switch (e.fault) {
    case LineFault::kBadToken:
      return "read_tns: bad token" + at;
    case LineFault::kOrder:
      return "read_tns: unsupported order" + at;
    case LineFault::kFieldCount:
      return "read_tns: expected " + std::to_string(order + 1) +
             " fields, got " + std::to_string(e.arg) + at;
    case LineFault::kNotPositive:
      return "read_tns: index must be a positive integer" + mode + at;
    case LineFault::kOverflow:
      return "read_tns: index overflows the index type" + mode + at;
    case LineFault::kNonInteger:
      return "read_tns: non-integer index" + mode + at;
    case LineFault::kNonFinite:
      return "read_tns: non-finite value" + at;
    default:
      return "read_tns: malformed line" + at;
  }
}

/// Characters no number can contain: whitespace strtod does not skip
/// inside a token, the comment mark, and the NUL that ended a line for
/// the line-at-a-time reader.
bool ends_token(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f' || c == '#' || c == '\0';
}

bool is_digit(char c) { return static_cast<unsigned>(c - '0') < 10U; }

/// Parses the number at \p p (line content ends at \p le) with exactly
/// strtod's result and stop position; returns \p p when nothing converts.
/// A pure digit run takes an integer loop and a decimal value
/// std::from_chars; a token neither consumes up to a delimiter goes to
/// strtod on a NUL-terminated copy of the token.
const char* parse_number(const char* p, const char* le, double& out,
                         std::string& scratch) {
  const char* q = p;
  std::uint64_t n = 0;
  while (q < le && q - p < kMaxFastDigits && is_digit(*q)) {
    n = n * 10 + static_cast<std::uint64_t>(*q - '0');
    ++q;
  }
  if (q > p && (q == le || ends_token(*q))) {
    out = static_cast<double>(n);
    return q;
  }
  if (is_digit(*p) || *p == '-' || *p == '.') {
    const auto [stop, ec] = std::from_chars(p, le, out);
    if (ec == std::errc{} && (stop == le || ends_token(*stop))) return stop;
  }
  // strtod skips leading whitespace, then stops at the first character no
  // number contains, so the token ends at the first such character after
  // the skipped run.
  q = p;
  while (q < le && std::isspace(static_cast<unsigned char>(*q)) != 0) ++q;
  while (q < le && !ends_token(*q)) ++q;
  scratch.assign(p, q);
  char* stop = nullptr;
  out = std::strtod(scratch.c_str(), &stop);
  return p + (stop - scratch.c_str());
}

/// One line's fields (the first kMaxOrder + 1; n counts them all).
struct Fields {
  std::array<double, kMaxOrder + 1> v{};
  std::size_t n = 0;
};

/// Classifies the line [p, le) for a tensor of \p order (< 0: not yet
/// inferred, in which case the line's field count proposes it). Checks
/// run in the line-at-a-time reader's order, so a line with several
/// faults reports the same one.
LineError classify_line(const char* p, const char* le, int order, Fields& f,
                        std::string& scratch) {
  f.n = 0;
  while (true) {
    while (p < le && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p == le || *p == '#' || *p == '\0') break;
    double v = 0.0;
    const char* q = parse_number(p, le, v, scratch);
    if (q == p) return {LineFault::kBadToken};
    if (f.n < f.v.size()) f.v[f.n] = v;
    ++f.n;
    p = q;
  }
  if (f.n == 0) return {LineFault::kBlank};
  if (order < 0) {
    const auto inferred = static_cast<int>(f.n) - 1;
    if (inferred < 1 || inferred > kMaxOrder) return {LineFault::kOrder};
    order = inferred;
  }
  if (f.n != static_cast<std::size_t>(order) + 1) {
    return {LineFault::kFieldCount, f.n};
  }
  for (int m = 0; m < order; ++m) {
    const double x = f.v[static_cast<std::size_t>(m)];
    const auto mode = static_cast<std::size_t>(m) + 1;
    // NaN fails every comparison, so it lands in the out-of-range arm.
    if (!(x >= 1.0)) return {LineFault::kNotPositive, mode};
    if (x > static_cast<double>(kIdxMax)) return {LineFault::kOverflow, mode};
    if (x != std::floor(x)) return {LineFault::kNonInteger, mode};
  }
  if (!std::isfinite(f.v[static_cast<std::size_t>(order)])) {
    return {LineFault::kNonFinite};
  }
  return {};
}

/// Pointer to the end of the line starting at \p p: its '\n', or \p e.
const char* line_end(const char* p, const char* e) {
  const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(e - p));
  return nl != nullptr ? static_cast<const char*>(nl) : e;
}

/// One team slot's share of a block. Reused across blocks, so its arrays
/// keep their capacity and the parse phase stops allocating after the
/// first block.
struct Piece {
  std::array<std::vector<idx_t>, kMaxOrder> inds;
  std::vector<val_t> vals;
  std::array<idx_t, kMaxOrder> dims{};  ///< largest 1-based index per mode
  nnz_t lines = 0;
  nnz_t dropped = 0;
  LineError first;  ///< first dropped line, numbered within the piece
  std::string scratch;
};

/// Parses the lines of [p, e) into \p out. Strict mode stops at the first
/// bad line: everything after it is discarded once the error is thrown.
void parse_piece(const char* p, const char* e, int order, bool strict,
                 Piece& out) {
  for (auto& mode : out.inds) mode.clear();
  out.vals.clear();
  out.dims.fill(0);
  out.lines = 0;
  out.dropped = 0;
  out.first = {};
  Fields f;
  while (p < e) {
    const char* le = line_end(p, e);
    ++out.lines;
    const LineError err = classify_line(p, le, order, f, out.scratch);
    p = le == e ? e : le + 1;
    if (err.fault == LineFault::kBlank) continue;
    if (err.fault != LineFault::kOk) {
      if (out.dropped++ == 0) out.first = {err.fault, err.arg, out.lines};
      if (strict) return;
      continue;
    }
    for (int m = 0; m < order; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      const auto i = static_cast<idx_t>(f.v[mi]);
      out.inds[mi].push_back(i - 1);  // to 0-based
      if (i > out.dims[mi]) out.dims[mi] = i;
    }
    out.vals.push_back(f.v[static_cast<std::size_t>(order)]);
  }
}

/// The reader's state across blocks: the tensor being built (one copy,
/// appended to block by block) and the diagnostics so far.
class TnsParser {
 public:
  TnsParser(const TnsReadOptions& opts, TnsReadStats& st, int team,
            std::uint64_t stream_bytes)
      : strict_(!opts.skip_bad_lines),
        st_(st),
        stream_bytes_(stream_bytes),
        pieces_(static_cast<std::size_t>(team)),
        cut_(static_cast<std::size_t>(team) + 1) {}

  /// Parses the complete lines of [p, e).
  void block(const char* p, const char* e) {
    // Order inference is serial: it walks lines only until the first one
    // that yields an order. That line is parsed again below, by a piece.
    while (order_ < 0 && p < e) {
      const char* le = line_end(p, e);
      Fields f;
      const LineError err = classify_line(p, le, -1, f, scratch_);
      if (err.fault == LineFault::kBadToken ||
          err.fault == LineFault::kOrder) {
        report({err.fault, err.arg, lines_ + 1}, 1);
      } else if (err.fault != LineFault::kBlank) {
        order_ = static_cast<int>(f.n) - 1;
        inds_.resize(static_cast<std::size_t>(order_));
        dims_.assign(static_cast<std::size_t>(order_), 0);
        break;
      }
      ++lines_;
      p = le == e ? e : le + 1;
    }
    if (p == e) return;

    // One piece per team slot, each cut just after a newline.
    const auto team = pieces_.size();
    const auto len = static_cast<std::size_t>(e - p);
    cut_[0] = p;
    for (std::size_t k = 1; k <= team; ++k) {
      const char* at = p + len * k / team;
      if (at <= cut_[k - 1]) {
        cut_[k] = cut_[k - 1];
      } else {
        const char* nl = line_end(at - 1, e);
        cut_[k] = nl == e ? e : nl + 1;
      }
    }
    // A short block is not worth a team launch; its pieces run in order on
    // the calling thread (same pieces, same result).
    const int threads =
        len >= kMinParallelBytes ? static_cast<int>(team) : 1;
    parallel_region(threads, [&](int tid, int nt) {
      for (auto k = static_cast<std::size_t>(tid); k < team;
           k += static_cast<std::size_t>(nt)) {
        parse_piece(cut_[k], cut_[k + 1], order_, strict_, pieces_[k]);
      }
    });

    if (vals_.empty()) reserve(len);

    // Append in file order; the first fault in file order is reported.
    for (const Piece& pc : pieces_) {
      if (pc.dropped > 0) {
        report({pc.first.fault, pc.first.arg, lines_ + pc.first.line},
               pc.dropped);
      }
      for (std::size_t m = 0; m < inds_.size(); ++m) {
        inds_[m].insert(inds_[m].end(), pc.inds[m].begin(),
                        pc.inds[m].end());
        dims_[m] = std::max(dims_[m], pc.dims[m]);
      }
      vals_.insert(vals_.end(), pc.vals.begin(), pc.vals.end());
      lines_ += pc.lines;
    }
  }

  SparseTensor finish() {
    SPTD_CHECK(order_ > 0 && !vals_.empty(),
               st_.dropped > 0
                   ? "read_tns: no valid nonzeros (" +
                         std::to_string(st_.dropped) +
                         " lines dropped; first: " + st_.first_error + ")"
                   : "read_tns: no nonzeros found");
    SparseTensor t(dims_);
    t.swap_storage(inds_, vals_);
    return t;
  }

 private:
  /// Sizes the tensor arrays once, from the nonzeros per byte of the
  /// \p bytes the pieces just parsed, so they are not regrown (and copied)
  /// while the file streams in. Reserved pages stay untouched until used;
  /// a short estimate falls back to ordinary vector growth.
  void reserve(std::size_t bytes) {
    std::size_t nnz = 0;
    for (const Piece& pc : pieces_) nnz += pc.vals.size();
    if (nnz == 0 || stream_bytes_ == 0) return;
    const double per_byte =
        static_cast<double>(nnz) / static_cast<double>(bytes);
    const auto want = static_cast<std::size_t>(
        per_byte * static_cast<double>(stream_bytes_) * 1.125) + 1;
    for (auto& mode : inds_) mode.reserve(want);
    vals_.reserve(want);
  }

  /// Strict mode throws at \p err; lenient mode counts \p dropped lines
  /// and keeps the first diagnostic.
  void report(const LineError& err, nnz_t dropped) {
    if (strict_) throw Error(describe(err, order_));
    if (st_.dropped == 0) st_.first_error = describe(err, order_);
    st_.dropped += dropped;
  }

  bool strict_;
  TnsReadStats& st_;
  std::uint64_t stream_bytes_;  ///< stream length, 0 when unknown
  std::vector<Piece> pieces_;
  std::vector<const char*> cut_;  ///< piece k is [cut_[k], cut_[k + 1])
  std::string scratch_;
  int order_ = -1;
  nnz_t lines_ = 0;  ///< lines consumed by earlier blocks and pieces
  std::vector<std::vector<idx_t>> inds_;
  std::vector<val_t> vals_;
  dims_t dims_;
};

/// Bytes left in \p in, or 0 when the stream cannot seek (a pipe).
std::uint64_t stream_bytes(std::istream& in) {
  const auto here = in.tellg();
  if (here == std::istream::pos_type(-1)) return 0;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (!in.good() || end <= here) return 0;
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace

namespace detail {

SparseTensor read_tns_blocks(std::istream& in, const TnsReadOptions& opts,
                             TnsReadStats* stats, std::size_t block_bytes,
                             int team) {
  SPTD_CHECK(block_bytes > 0 && team >= 1,
             "read_tns: block size and team size must be positive");
  TnsReadStats local_stats;
  TnsReadStats& st = stats != nullptr ? *stats : local_stats;
  st = TnsReadStats{};
  TnsParser parser(opts, st, team, stream_bytes(in));

  // buf[0, have) holds the partial line carried over from the last block
  // (it has no newline); each read fills the rest. The buffer doubles
  // only for a line longer than it. Left uninitialized: a short stream
  // touches only its pages.
  std::size_t size = block_bytes;
  auto buf = std::make_unique_for_overwrite<char[]>(size);
  std::size_t have = 0;
  for (bool eof = false; !eof;) {
    if (have == size) {
      auto grown = std::make_unique_for_overwrite<char[]>(2 * size);
      std::memcpy(grown.get(), buf.get(), have);
      buf = std::move(grown);
      size *= 2;
    }
    const std::size_t carried = have;
    const std::size_t want = size - have;
    in.read(buf.get() + have, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in.gcount());
    have += got;
    eof = got < want;
    std::size_t end = have;
    if (!eof) {
      const auto nl = std::string_view(buf.get() + carried, got).rfind('\n');
      if (nl == std::string_view::npos) continue;  // line longer than a block
      end = carried + nl + 1;
    }
    parser.block(buf.get(), buf.get() + end);
    std::memmove(buf.get(), buf.get() + end, have - end);
    have -= end;
  }
  return parser.finish();
}

}  // namespace detail

SparseTensor read_tns(std::istream& in, const TnsReadOptions& opts,
                      TnsReadStats* stats) {
  return detail::read_tns_blocks(in, opts, stats, kTnsBlockBytes,
                                 hardware_threads());
}

SparseTensor read_tns_file(const std::string& path,
                           const TnsReadOptions& opts, TnsReadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  SPTD_CHECK(in.good(), "read_tns_file: cannot open " + path);
  return read_tns(in, opts, stats);
}

void write_tns(const SparseTensor& t, std::ostream& out) {
  std::ostringstream os;
  os.precision(std::numeric_limits<val_t>::max_digits10);
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    for (int m = 0; m < t.order(); ++m) {
      os << (t.ind(m)[x] + 1) << ' ';
    }
    os << t.vals()[x] << '\n';
  }
  out << os.str();
}

void write_tns_file(const SparseTensor& t, const std::string& path) {
  std::ofstream out(path);
  SPTD_CHECK(out.good(), "write_tns_file: cannot open " + path);
  write_tns(t, out);
  SPTD_CHECK(out.good(), "write_tns_file: write failed for " + path);
}

void write_bin_file(const SparseTensor& t, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  SPTD_CHECK(out.good(), "write_bin_file: cannot open " + path);
  out.write(kBinMagic, sizeof(kBinMagic));
  const auto order = static_cast<std::uint32_t>(t.order());
  const std::uint64_t nnz = t.nnz();
  out.write(reinterpret_cast<const char*>(&order), sizeof(order));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  for (int m = 0; m < t.order(); ++m) {
    const idx_t d = t.dim(m);
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  for (int m = 0; m < t.order(); ++m) {
    out.write(reinterpret_cast<const char*>(t.ind(m).data()),
              static_cast<std::streamsize>(nnz * sizeof(idx_t)));
  }
  out.write(reinterpret_cast<const char*>(t.vals().data()),
            static_cast<std::streamsize>(nnz * sizeof(val_t)));
  SPTD_CHECK(out.good(), "write_bin_file: write failed for " + path);
}

SparseTensor read_bin_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  SPTD_CHECK(in.good(), "read_bin_file: cannot open " + path);
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char magic[8];
  in.read(magic, sizeof(magic));
  SPTD_CHECK(in.good() && std::memcmp(magic, kBinMagic, sizeof(magic)) == 0,
             "read_bin_file: bad magic in " + path);
  std::uint32_t order = 0;
  std::uint64_t nnz = 0;
  in.read(reinterpret_cast<char*>(&order), sizeof(order));
  in.read(reinterpret_cast<char*>(&nnz), sizeof(nnz));
  SPTD_CHECK(in.good() && order >= 1 && order <= kMaxOrder,
             "read_bin_file: bad header in " + path);
  // Every allocation below is bounded by the file size: the header's
  // order and nnz must describe bytes the file really holds.
  const std::uint64_t header = sizeof(kBinMagic) + sizeof(order) +
                               sizeof(nnz) + order * sizeof(idx_t);
  const std::uint64_t per_nnz = order * sizeof(idx_t) + sizeof(val_t);
  SPTD_CHECK(file_bytes >= header,
             "read_bin_file: truncated header in " + path);
  SPTD_CHECK(nnz <= (file_bytes - header) / per_nnz,
             "read_bin_file: header declares " + std::to_string(nnz) +
                 " nonzeros but the file holds at most " +
                 std::to_string((file_bytes - header) / per_nnz) + " in " +
                 path);
  dims_t dims(order);
  for (auto& d : dims) {
    in.read(reinterpret_cast<char*>(&d), sizeof(d));
  }
  SparseTensor t(dims);
  t.resize_nnz(nnz);
  for (std::uint32_t m = 0; m < order; ++m) {
    in.read(reinterpret_cast<char*>(t.ind(static_cast<int>(m)).data()),
            static_cast<std::streamsize>(nnz * sizeof(idx_t)));
  }
  in.read(reinterpret_cast<char*>(t.vals().data()),
          static_cast<std::streamsize>(nnz * sizeof(val_t)));
  SPTD_CHECK(in.good(), "read_bin_file: truncated file " + path);
  t.validate();
  return t;
}

}  // namespace sptd
