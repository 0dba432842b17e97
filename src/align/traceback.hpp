// Full-matrix traceback for accepted top alignments.
//
// Score-only kernels keep one row; when a rectangle is *accepted* as a top
// alignment the finder recomputes its full matrix under the current override
// triangle and walks the best valid bottom-row cell back to reconstruct the
// aligned pairs (which then feed the override triangle). The paper calls
// this step the sequential part of the search: it happens once per top
// alignment, and every other worker may be waiting for its pairs. So the
// matrix is filled in SIMD lanes like the score pass (traceback_fill.hpp):
// row y depends only on row y-1, its horizontal gap maximum is a prefix
// max across lanes, and the vertical one is lane-wise. Only the walk back
// along one path is scalar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "align/engine.hpp"
#include "align/types.hpp"
#include "util/aligned.hpp"

namespace repro::align {

/// Best end cell of a bottom row under shadow rejection (Appendix A): a cell
/// is valid iff its realigned value equals the stored first-alignment value;
/// an empty `original` marks every cell valid. Ties break to the smallest x.
struct BestEnd {
  Score score = 0;
  int end_x = 0;  ///< 1-based bottom-row column; 0 when no valid cell exists
};

BestEnd find_best_end(std::span<const Score> row,
                      std::span<const std::int16_t> original);

/// Overload for freshly recomputed (32-bit) original rows — the Appendix-A
/// low-memory mode recomputes originals on demand instead of archiving them.
BestEnd find_best_end(std::span<const Score> row,
                      std::span<const Score> original);

/// No validity filter (every cell is a legal end).
BestEnd find_best_end(std::span<const Score> row);

/// A reconstructed local alignment of rectangle r.
struct Traceback {
  int r = 0;
  Score score = 0;
  int end_x = 0;  ///< 1-based bottom-row column the walk started from
  /// Aligned residue pairs as global positions (i, j), ascending in both
  /// components. Every cell on the path aligns exactly one pair (gaps skip
  /// positions between consecutive pairs).
  std::vector<std::pair<int, int>> pairs;
};

/// Rectangle r's full matrix H(y, x), 0 <= y <= rows = r and
/// 0 <= x <= cols = m - r; row 0 and column 0 are the zero boundary. A row
/// is `lanes` leading cells, the last of them column 0, then columns
/// 1..cols padded to whole vectors of `lanes`, so column 1 of every row
/// starts an aligned vector. Padding cells hold unspecified values.
class TracebackMatrix {
 public:
  /// Row 0 and column 0 zero, every other cell unset.
  TracebackMatrix(int rows, int cols, int lanes);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] Score at(int y, int x) const {
    return row(y)[static_cast<std::ptrdiff_t>(x) - 1];
  }
  /// Column 1 of row y; column 0 is row(y)[-1].
  [[nodiscard]] const Score* row(int y) const {
    return cells_.data() + static_cast<std::size_t>(y) * stride_ + lanes_;
  }
  [[nodiscard]] Score* row(int y) {
    return cells_.data() + static_cast<std::size_t>(y) * stride_ + lanes_;
  }

 private:
  int rows_;
  int cols_;
  std::size_t lanes_;
  std::size_t stride_;
  util::AlignedBuffer<Score> cells_;
};

/// One fill of the traceback matrix: VecOps<Score, lanes, isa> lanes. The
/// portable fill is always compiled in; all fills give every cell the same
/// value.
struct TracebackFill {
  Isa isa;
  int lanes;
  /// Rectangle job.r0's matrix under job.overrides (job.count == 1).
  TracebackMatrix (*fill)(const GroupJob& job);

  [[nodiscard]] bool available() const { return isa_available(isa); }
};

/// Every fill this build compiled in, available on this CPU or not.
std::span<const TracebackFill> traceback_fills();

/// The fill traceback_best uses: the last available one of
/// traceback_fills() (the widest), picked once per process.
const TracebackFill& default_traceback_fill();

/// Recomputes rectangle job.r0's full matrix under job.overrides, selects
/// the best valid end cell (see find_best_end) and walks it back.
/// Deterministic move preference at equal score: diagonal, then the shortest
/// horizontal gap, then the shortest vertical gap.
/// Requires job.count == 1 and a positive best valid score.
Traceback traceback_best(const GroupJob& job,
                         std::span<const std::int16_t> original);

/// Overload for recomputed 32-bit original rows (low-memory mode).
Traceback traceback_best(const GroupJob& job, std::span<const Score> original);

/// No validity filter.
Traceback traceback_best(const GroupJob& job);

/// No validity filter, with the matrix of `fill` (which must be available):
/// lets tests and benches compare the fills.
Traceback traceback_best(const GroupJob& job, const TracebackFill& fill);

}  // namespace repro::align
