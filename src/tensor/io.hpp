#pragma once
/// \file io.hpp
/// \brief Tensor file I/O: FROSTT `.tns` text format and a compact binary
///        format for fast bench startup.
///
/// `.tns` is the format the paper's datasets (YELP, NELL-2, ...) ship in:
/// one nonzero per line, 1-based indices, value last, `#` comments, no
/// header. Order and mode lengths are inferred. The binary format is a
/// straight dump with a magic/version header and is byte-order-native.
///
/// The `.tns` parser contract:
///  * **Block buffering.** The stream is read through `istream::read` in
///    fixed-size blocks (4 MiB); the partial last line of a block carries
///    over to the next. read_tns and read_tns_file share this one path.
///  * **Parallel parse.** Each block's complete lines are split at
///    newlines into one piece per team slot and parsed under
///    `parallel_region(hardware_threads(), ...)`, so `OMP_NUM_THREADS`
///    sets the team; a block under 64 KiB runs its pieces on the calling
///    thread. Order inference runs serially, before any piece, on the
///    lines up to the first one that yields an order.
///  * **Deterministic result.** Pieces are appended in file order, so the
///    tensor (indices, values, dims) is bit-identical for every team size,
///    block size and backend. Diagnostics keep their text and global line
///    numbers; the fault that comes first in the file wins.
///  * **Memory.** One copy of the tensor, appended to block by block
///    (sized up front from the first block when the stream can seek) and
///    handed to the SparseTensor without a copy, plus a constant-size
///    block buffer and per-slot piece buffers reused across blocks (a
///    line longer than a block grows the buffer to hold it).
///  * **Number parsing.** A pure digit run takes an integer loop and a
///    decimal value std::from_chars. Any token the fast path does not
///    consume up to a delimiter (space, tab, `\r`, `\n`, `#`, end of
///    input) — `+3`, `0x1p3`, `inf`, overlong digit runs, ... — goes to
///    `strtod`, so every value is exactly what `strtod` returns.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "common/types.hpp"
#include "tensor/coo.hpp"

namespace sptd {

/// Loader strictness knobs for read_tns.
struct TnsReadOptions {
  /// false (default): any malformed line — unparseable token, wrong field
  /// count, non-integer / zero / negative / overflowing index, non-finite
  /// value — throws sptd::Error naming the line. true (`--skip-bad-lines`):
  /// malformed lines are dropped and counted instead; the file still fails
  /// if NO valid nonzero survives.
  bool skip_bad_lines = false;
};

/// What a lenient read dropped (all zero/empty on a clean file).
struct TnsReadStats {
  nnz_t dropped = 0;        ///< malformed lines skipped
  std::string first_error;  ///< diagnostic of the first dropped line
};

/// Reads a FROSTT-style .tns stream. Throws sptd::Error on malformed input
/// unless opts.skip_bad_lines; \p stats (optional) reports what a lenient
/// read dropped.
SparseTensor read_tns(std::istream& in, const TnsReadOptions& opts = {},
                      TnsReadStats* stats = nullptr);

/// Reads a .tns file by path.
SparseTensor read_tns_file(const std::string& path,
                           const TnsReadOptions& opts = {},
                           TnsReadStats* stats = nullptr);

namespace detail {

/// read_tns with the block size and team size as parameters: the test
/// seam for block- and piece-boundary handling. Not a user option.
SparseTensor read_tns_blocks(std::istream& in, const TnsReadOptions& opts,
                             TnsReadStats* stats, std::size_t block_bytes,
                             int team);

}  // namespace detail

/// Writes .tns (1-based indices, full precision values).
void write_tns(const SparseTensor& t, std::ostream& out);

/// Writes .tns to a file path.
void write_tns_file(const SparseTensor& t, const std::string& path);

/// Reads the compact binary format written by write_bin_file. The
/// header's order and nnz are checked against the file size before
/// anything is allocated; a truncated or inconsistent file throws
/// sptd::Error.
SparseTensor read_bin_file(const std::string& path);

/// Writes the compact binary format (magic "SPTDBIN1").
void write_bin_file(const SparseTensor& t, const std::string& path);

}  // namespace sptd
