#include "cpd/model_io.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fileio.hpp"

namespace sptd {

namespace {

/// Serializes the version-independent body (everything after the header
/// and checksum lines). The v1 format was exactly this body behind a bare
/// "sptd-kruskal 1" line; v2 checksums these bytes verbatim.
std::string model_body(const KruskalModel& model) {
  std::ostringstream os;
  os.precision(std::numeric_limits<val_t>::max_digits10);
  os << "order " << model.order() << " rank " << model.rank() << "\n";
  os << "lambda\n";
  for (idx_t r = 0; r < model.rank(); ++r) {
    if (r) os << ' ';
    os << model.lambda[r];
  }
  os << "\n";
  for (int m = 0; m < model.order(); ++m) {
    const la::Matrix& f = model.factors[static_cast<std::size_t>(m)];
    os << "factor " << m << ' ' << f.rows() << ' ' << f.cols() << "\n";
    for (idx_t i = 0; i < f.rows(); ++i) {
      const val_t* row = f.row_ptr(i);
      for (idx_t j = 0; j < f.cols(); ++j) {
        if (j) os << ' ';
        os << row[j];
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string checksum_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// Parses the body shared by v1 and v2. Every declared size is checked
/// against the unread bytes before anything is allocated: each value
/// needs at least a digit and a separator, so a size above half of what
/// is left cannot be honest.
KruskalModel read_model_body(const std::string& body) {
  std::istringstream in(body);
  const auto check_fits = [&](std::uint64_t values, const std::string& what) {
    const std::uint64_t left =
        in.eof() ? 0
                 : body.size() - static_cast<std::uint64_t>(in.tellg());
    SPTD_CHECK(values <= left / 2,
               "read_model: " + what + " declares " + std::to_string(values) +
                   " values but only " + std::to_string(left) +
                   " bytes of the body remain");
  };
  std::string token;
  int order = 0;
  idx_t rank = 0;
  std::string order_kw, rank_kw;
  SPTD_CHECK(static_cast<bool>(in >> order_kw >> order >> rank_kw >> rank) &&
                 order_kw == "order" && rank_kw == "rank" && order >= 1 &&
                 order <= kMaxOrder && rank >= 1,
             "read_model: bad order/rank line");

  KruskalModel model;
  SPTD_CHECK(static_cast<bool>(in >> token) && token == "lambda",
             "read_model: missing lambda section");
  check_fits(rank, "rank");
  model.lambda.resize(rank);
  for (idx_t r = 0; r < rank; ++r) {
    SPTD_CHECK(static_cast<bool>(in >> model.lambda[r]),
               "read_model: truncated lambda");
  }

  for (int m = 0; m < order; ++m) {
    int mode = -1;
    idx_t rows = 0, cols = 0;
    SPTD_CHECK(static_cast<bool>(in >> token >> mode >> rows >> cols) &&
                   token == "factor" && mode == m && rows >= 1 &&
                   cols == rank,
               "read_model: bad factor header for mode " +
                   std::to_string(m));
    check_fits(std::uint64_t{rows} * cols, "factor " + std::to_string(m));
    la::Matrix f(rows, cols);
    for (idx_t i = 0; i < rows; ++i) {
      val_t* row = f.row_ptr(i);
      for (idx_t j = 0; j < cols; ++j) {
        SPTD_CHECK(static_cast<bool>(in >> row[j]),
                   "read_model: truncated factor " + std::to_string(m));
      }
    }
    model.factors.push_back(std::move(f));
  }
  return model;
}

}  // namespace

std::string serialize_model(const KruskalModel& model) {
  const std::string body = model_body(model);
  std::string out = "sptd-kruskal 2\nchecksum ";
  out += checksum_hex(fnv1a64(body));
  out += "\n";
  out += body;
  return out;
}

void write_model(const KruskalModel& model, std::ostream& out) {
  out << serialize_model(model);
}

void write_model_file(const KruskalModel& model, const std::string& path) {
  atomic_write_file(path, serialize_model(model));
}

KruskalModel read_model(std::istream& in) {
  std::string token;
  int version = 0;
  SPTD_CHECK(static_cast<bool>(in >> token >> version) &&
                 token == "sptd-kruskal",
             "read_model: bad header (not an sptd-kruskal file)");
  SPTD_CHECK(version == 1 || version == 2,
             "read_model: unsupported version " + std::to_string(version));
  std::uint64_t expected = 0;
  if (version == 2) {
    SPTD_CHECK(static_cast<bool>(in >> token) && token == "checksum",
               "read_model: missing checksum line");
    std::string hex;
    SPTD_CHECK(static_cast<bool>(in >> hex) && hex.size() == 16,
               "read_model: malformed checksum");
    try {
      expected = std::stoull(hex, nullptr, 16);
    } catch (const std::exception&) {
      throw Error("read_model: malformed checksum");
    }
    std::string line;
    std::getline(in, line);
  }
  // The body is everything after the header (v1, which has no checksum
  // line) or the checksum line (v2), to end of stream.
  std::ostringstream payload;
  payload << in.rdbuf();
  const std::string body = payload.str();
  SPTD_CHECK(version == 1 || fnv1a64(body) == expected,
             "read_model: checksum mismatch (file corrupt or truncated)");
  return read_model_body(body);
}

KruskalModel read_model_file(const std::string& path) {
  std::ifstream in(path);
  SPTD_CHECK(in.good(), "read_model_file: cannot open " + path);
  return read_model(in);
}

}  // namespace sptd
