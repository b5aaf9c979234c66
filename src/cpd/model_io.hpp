#pragma once
/// \file model_io.hpp
/// \brief Persistence for Kruskal models — the analogue of SPLATT's
///        factor-matrix output files, so a decomposition can be computed
///        once and analyzed elsewhere.
///
/// Text format (versioned):
///   sptd-kruskal 2
///   checksum <16 hex digits>      (FNV-1a 64 over the payload below)
///   order <N> rank <R>
///   lambda
///   <R values on one line>
///   factor <m> <rows> <cols>      (N times)
///   <rows lines of cols values>
///
/// Values print with max_digits10, so doubles round-trip exactly — a model
/// written, read, and rewritten is byte-identical, which is what lets the
/// resume path promise bitwise-equal output files. Version 1 files (no
/// checksum line) remain readable; writes always emit version 2 and land
/// atomically (tmp + fsync + rename).
///
/// Writing: the file is built in one string sized up front to its worst
/// case. Values are spelled by format_double (common/format.hpp:
/// `std::to_chars`, general, max_digits10 — the same bytes as an ostream
/// at that precision). Each factor's rows are split across a
/// `parallel_region(hardware_threads(), ...)` team, chunks are moved
/// together in row order, and the checksum is filled into a fixed-width
/// slot at the front, so the bytes do not depend on the team size.
///
/// Reading: the body is tokenized with a pointer and parsed with
/// `std::from_chars`, accepting what `operator>>` accepts (a leading `+`;
/// underflow reads as its signed zero or subnormal) and rejecting what it
/// rejects (`nan`, `inf`, overflow, a token with trailing junk).

#include <iosfwd>
#include <string>

#include "cpd/kruskal.hpp"

namespace sptd {

/// Serializes a model to the version-2 text format (header + checksum +
/// payload), full double precision.
std::string serialize_model(const KruskalModel& model);

/// Writes a Kruskal model (full double precision).
void write_model(const KruskalModel& model, std::ostream& out);

/// Writes a Kruskal model to a file path, atomically.
void write_model_file(const KruskalModel& model, const std::string& path);

/// Reads a model written by write_model. Throws sptd::Error on malformed
/// input.
KruskalModel read_model(std::istream& in);

/// Reads a model from a file path.
KruskalModel read_model_file(const std::string& path);

namespace detail {

/// serialize_model with the team size as a parameter: the test seam for
/// chunk boundaries (the output is the same for every team). Not a user
/// option.
std::string serialize_model(const KruskalModel& model, int team);

}  // namespace detail

}  // namespace sptd
