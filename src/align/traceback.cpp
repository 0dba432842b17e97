#include "align/traceback.hpp"

#include <algorithm>
#include <vector>

#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"
#include "util/check.hpp"

namespace repro::align {
namespace {

template <typename T>
BestEnd find_best_end_impl(std::span<const Score> row, std::span<const T> original) {
  if (!original.empty())
    REPRO_CHECK_MSG(original.size() == row.size(),
                    "original bottom row size mismatch");
  BestEnd best;
  for (std::size_t x = 0; x < row.size(); ++x) {
    if (!original.empty() && row[x] != original[x]) continue;  // shadow
    if (best.end_x == 0 || row[x] > best.score) {
      best.score = row[x];
      best.end_x = static_cast<int>(x) + 1;
    }
  }
  return best;
}

template <typename T>
Traceback traceback_best_impl(const GroupJob& job, std::span<const T> original,
                              const TracebackFill& fill) {
  REPRO_CHECK(job.count == 1);
  REPRO_CHECK(job.r0 >= 1 && job.r0 < static_cast<int>(job.seq.size()));
  REPRO_CHECK_MSG(fill.available(), "traceback fill needs "
                                        << isa_name(fill.isa)
                                        << ", which this CPU lacks");
  const auto& seq = job.seq;
  const int r = job.r0;
  const seq::ScoreMatrix& ex = job.scoring->matrix;
  const Score open = job.scoring->gap.open;
  const Score ext = job.scoring->gap.extend;
  const TracebackMatrix mat = fill.fill(job);
  const int rows = mat.rows();
  const auto at = [&mat](int y, int x) { return mat.at(y, x); };

  const std::span<const Score> bottom(mat.row(rows),
                                      static_cast<std::size_t>(mat.cols()));
  const BestEnd end = find_best_end_impl<T>(bottom, original);
  REPRO_CHECK_MSG(end.end_x != 0 && end.score > 0,
                  "traceback requested with no positive valid end cell (r="
                      << r << ")");

  Traceback tb;
  tb.r = r;
  tb.score = end.score;
  tb.end_x = end.end_x;

  // Walk back. Every cell on the path aligns one pair; the predecessor is
  // found by re-deriving which inner-max candidate produced the value.
  int y = rows;
  int x = end.end_x;
  while (true) {
    const Score h = at(y, x);
    REPRO_DCHECK(h > 0);
    const int i = y - 1;
    const int j = r + x - 1;
    tb.pairs.emplace_back(i, j);
    const Score e = ex.score(seq[static_cast<std::size_t>(i)],
                             seq[static_cast<std::size_t>(j)]);
    const Score inner = h - e;
    int py = -1;
    int px = -1;
    if (at(y - 1, x - 1) == inner) {
      py = y - 1;
      px = x - 1;
    } else {
      // Shortest-gap preference, horizontal before vertical.
      for (int g = 1; g <= x - 2 && py < 0; ++g)
        if (at(y - 1, x - 1 - g) - open - g * ext == inner) {
          py = y - 1;
          px = x - 1 - g;
        }
      for (int g = 1; g <= y - 2 && py < 0; ++g)
        if (at(y - 1 - g, x - 1) - open - g * ext == inner) {
          py = y - 1 - g;
          px = x - 1;
        }
    }
    REPRO_CHECK_MSG(py >= 0, "traceback failed to find a predecessor at ("
                                 << y << "," << x << ")");
    if (at(py, px) == 0) break;  // local alignment starts here
    y = py;
    x = px;
  }

  std::reverse(tb.pairs.begin(), tb.pairs.end());
  return tb;
}

// Narrowest first: the last available row is the default. The AVX2 fill
// also serves AVX-512BW hosts (8 x i32 in one YMM register), so a run whose
// sweeps stay in u8 lanes executes no ZMM instruction.
constexpr TracebackFill kFills[] = {
    {Isa::kPortable, 4, detail::fill_traceback_portable},
#if REPRO_ENABLE_AVX2
    {Isa::kAvx2, 8, detail::fill_traceback_avx2},
#endif
};

}  // namespace

TracebackMatrix::TracebackMatrix(int rows, int cols, int lanes)
    : rows_(rows),
      cols_(cols),
      lanes_(static_cast<std::size_t>(lanes)),
      stride_(lanes_ + (static_cast<std::size_t>(cols) + lanes_ - 1) / lanes_ *
                           lanes_),
      cells_((static_cast<std::size_t>(rows) + 1) * stride_) {
  // The fill writes every other cell a read can reach.
  std::fill_n(cells_.data(), stride_, 0);
  for (int y = 1; y <= rows; ++y) row(y)[-1] = 0;
}

std::span<const TracebackFill> traceback_fills() { return kFills; }

const TracebackFill& default_traceback_fill() {
  static const TracebackFill& chosen = []() -> const TracebackFill& {
    const TracebackFill* best = &kFills[0];  // portable: always available
    for (const TracebackFill& fill : kFills)
      if (fill.available()) best = &fill;
    return *best;
  }();
  return chosen;
}

BestEnd find_best_end(std::span<const Score> row,
                      std::span<const std::int16_t> original) {
  return find_best_end_impl<std::int16_t>(row, original);
}

BestEnd find_best_end(std::span<const Score> row,
                      std::span<const Score> original) {
  return find_best_end_impl<Score>(row, original);
}

Traceback traceback_best(const GroupJob& job,
                         std::span<const std::int16_t> original) {
  return traceback_best_impl<std::int16_t>(job, original,
                                           default_traceback_fill());
}

Traceback traceback_best(const GroupJob& job, std::span<const Score> original) {
  return traceback_best_impl<Score>(job, original, default_traceback_fill());
}

BestEnd find_best_end(std::span<const Score> row) {
  return find_best_end_impl<Score>(row, {});
}

Traceback traceback_best(const GroupJob& job) {
  return traceback_best_impl<Score>(job, {}, default_traceback_fill());
}

Traceback traceback_best(const GroupJob& job, const TracebackFill& fill) {
  return traceback_best_impl<Score>(job, {}, fill);
}

}  // namespace repro::align
