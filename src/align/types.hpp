// Shared types and indexing conventions of the alignment layer.
//
// Top-alignment geometry (paper §2.2 / §3), in 0-based terms used throughout
// this codebase:
//
//   * A sequence S of length m has m-1 split points r in [1, m-1].
//   * Rectangle r locally aligns prefix S[0..r) (vertical, rows y = 1..r)
//     against suffix S[r..m) (horizontal, columns x = 1..m-r).
//   * Cell (y, x) aligns the residue pair with global positions
//     (i, j) = (y-1, r+x-1); i < j always holds, so pair bookkeeping (the
//     override triangle) is a strict upper triangle over global positions.
//   * Local alignments of rectangle r always end in its bottom row y = r
//     (Appendix A), so score-only kernels output exactly that row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "seq/scoring.hpp"

namespace repro::align {

/// Alignment scores. Kernels may compute in saturating i16 lanes (like the
/// paper's SSE/SSE2 code); results are widened to Score at the API boundary.
using Score = std::int32_t;

/// "Minus infinity" for running gap maxima; chosen so that subtracting any
/// realistic penalty chain cannot underflow i32.
inline constexpr Score kNegInf = -(1 << 28);

/// Saturating-i16 lanes use this floor; subs_epi16 keeps values >= -32768.
inline constexpr std::int16_t kNegInf16 = -30000;

class OverrideTriangle;

/// Non-owning view of a saved kernel row state for checkpoint-resume
/// realignment: the interleaved (H, MaxY) column state exactly as the kernel
/// leaves it after sweeping DP rows 1..row. Restoring it and re-entering the
/// sweep at row+1 is bit-identical to a from-scratch sweep, because the only
/// other carries (per-row stripe carries, the running MaxX) are recomputed
/// from it before they are read. The byte layout is engine-specific — lanes
/// interleaved at c*lanes+k, `elem_size` bytes per element — and guarded by
/// the stamp fields; kernels reject mismatching layouts.
struct CheckpointView {
  int row = 0;        ///< deepest DP row covered by this state (>= 1)
  int lanes = 0;      ///< interleave factor L of the producing kernel
  int elem_size = 0;  ///< bytes per lane element (2 = i16, 4 = i32)
  const std::byte* h = nullptr;      ///< width x lanes elements of H
  const std::byte* max_y = nullptr;  ///< width x lanes elements of MaxY
  std::size_t bytes = 0;             ///< size of each buffer in bytes
};

/// One emitted checkpoint row (the owning counterpart of CheckpointView).
struct CheckpointRow {
  int row = 0;
  std::vector<std::byte> h;
  std::vector<std::byte> max_y;
  [[nodiscard]] std::size_t bytes() const { return h.size() + max_y.size(); }
};

/// Staging area a kernel fills with checkpoint rows while it sweeps. The
/// caller sets the emission grid (`stride`, `top_row`); the kernel stamps the
/// layout and writes `count` rows into `rows`. Buffers are recycled across
/// sweeps (`rows` never shrinks; `count` is the live prefix), so a warm sink
/// allocates nothing.
struct CheckpointSink {
  int stride = 1;    ///< emit rows at multiples of this (>= 1)
  int top_row = 0;   ///< also emit this row (kernels clamp it to r0 - 1)
  int lanes = 0;     ///< stamped by the kernel
  int elem_size = 0; ///< stamped by the kernel
  int count = 0;     ///< live rows in `rows` after the sweep
  std::vector<CheckpointRow> rows;  ///< ascending by row within the prefix

  /// Rebuilds the live prefix for every emission row in [y_begin, max_row]:
  /// multiples of `stride`, plus `max_row` itself.
  void prepare(int y_begin, int max_row, std::size_t buf_bytes) {
    count = 0;
    const auto add = [&](int y) {
      if (static_cast<std::size_t>(count) == rows.size()) rows.emplace_back();
      CheckpointRow& cr = rows[static_cast<std::size_t>(count)];
      cr.row = y;
      cr.h.resize(buf_bytes);
      cr.max_y.resize(buf_bytes);
      ++count;
    };
    if (max_row < y_begin) return;
    const int first = ((y_begin + stride - 1) / stride) * stride;
    for (int y = first; y <= max_row; y += stride) add(y);
    if (count == 0 || rows[static_cast<std::size_t>(count - 1)].row != max_row)
      add(max_row);
  }

  /// Drops staged rows >= `min_dirty_row`: row y's state depends on override
  /// bits of pairs with i <= y-1, so rows at or past the first dirty row may
  /// have been computed from bits added after the sweep started.
  void drop_from(int min_dirty_row) {
    int keep = 0;
    while (keep < count && rows[static_cast<std::size_t>(keep)].row < min_dirty_row)
      ++keep;
    count = keep;
  }
};

/// One group of consecutive rectangles to align score-only. Engines with L
/// lanes accept count in [1, L]; scalar engines accept count == 1.
struct GroupJob {
  std::span<const std::uint8_t> seq;     ///< full sequence codes (length m)
  const seq::Scoring* scoring = nullptr; ///< exchange matrix + gap penalties
  const OverrideTriangle* overrides = nullptr;  ///< nullptr = empty triangle
  int r0 = 1;     ///< first split of the group
  int count = 1;  ///< number of consecutive splits r0, r0+1, ...
  /// When set (and the engine supports checkpoints), the sweep starts at
  /// DP row resume->row + 1 from the saved state instead of row 1.
  const CheckpointView* resume = nullptr;
  /// When set (and the engine supports checkpoints), the kernel emits
  /// checkpoint rows on the sink's grid for rows >= the resume point.
  CheckpointSink* sink = nullptr;
  /// Engine::align points this at its count of rows restored from `resume`
  /// before calling the kernel; a kernel that drops the resume and sweeps
  /// from row 1 sets it to 0. Callers leave it unset and read the count
  /// Engine::align returns.
  int* resumed_rows = nullptr;
};

}  // namespace repro::align
