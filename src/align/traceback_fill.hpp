// The traceback matrix fill over VecOps<Score, Lanes, Isa> lanes. Not part
// of the API: each translation unit that compiles a row's ISA instantiates
// it (traceback_fills() in traceback.cpp lists them).
//
// Row y of rectangle r depends only on row y-1 (Fig. 3 recurrence, the
// paper's Eq. 1 with affine gaps):
//
//   H(y, x) = max(0, ex(i, j) + max(diag, max_x, max_y)),  diag = H(y-1, x-1)
//   max_x(y, x) = max_{k<x} (H(y-1, k-1) + k*ext) - open - x*ext
//   max_y(y, x) = max(diag(y-1, x) - open, max_y(y-1, x)) - ext
//
// So a vector of L columns loads its diagonals from the previous row one
// column to the left, max_x is an exclusive prefix max of
// H(y-1, k-1) + k*ext across lanes (log2 L shift+max steps) plus a carry
// from the vectors to its left, and max_y is lane-wise. diag >= 0, so
// the kNegInf seeds never win, and kNegInf - m*ext stays far inside i32:
// every cell gets exactly the scalar recurrence's value. Padding lanes past
// the last column only feed lanes to their right, so they never reach a
// real column. An override test is one masked zero per vector: row i's bits
// are contiguous in j = r + x - 1, so L columns take theirs from at most
// two words of the row.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "align/override_triangle.hpp"
#include "align/traceback.hpp"
#include "align/vec_ops.hpp"
#include "util/aligned.hpp"

namespace repro::align::detail {
namespace {

/// Inclusive prefix max across the lanes of a: lane l = max(a[0..l]).
template <class Ops, int N = 1>
REPRO_FORCE_INLINE typename Ops::Vec prefix_max(typename Ops::Vec a) {
  if constexpr (N >= Ops::kLanes) {
    return a;
  } else {
    return prefix_max<Ops, 2 * N>(
        Ops::max(a, Ops::template shift_up<N>(a, kNegInf)));
  }
}

/// L override bits of row i from bit b on (bit b: j = i + 1 + b); `words`
/// is the row's word count.
template <int L>
REPRO_FORCE_INLINE std::uint64_t override_lanes(
    const std::atomic<std::uint64_t>* obits, std::int64_t b,
    std::int64_t words) {
  const std::int64_t w = b >> 6;
  const int s = static_cast<int>(b & 63);
  std::uint64_t bits = obits[w].load(std::memory_order_relaxed) >> s;
  if (s > 64 - L && w + 1 < words)
    bits |= obits[w + 1].load(std::memory_order_relaxed) << (64 - s);
  return bits;
}

template <class Ops>
TracebackMatrix fill_traceback(const GroupJob& job) {
  using Vec = typename Ops::Vec;
  constexpr int L = Ops::kLanes;
  const auto& seq = job.seq;
  const int m = static_cast<int>(seq.size());
  const int r = job.r0;
  const int rows = r;
  const int cols = m - r;
  const std::size_t width =
      static_cast<std::size_t>((cols + L - 1) / L) * L;  // padded columns
  const seq::ScoreMatrix& ex = job.scoring->matrix;
  const Score open = job.scoring->gap.open;
  const Score ext = job.scoring->gap.extend;

  // i32 profile: profile[a * width + x - 1] = ex(a, seq[r + x - 1]).
  util::AlignedBuffer<Score> profile(static_cast<std::size_t>(ex.size()) *
                                     width);
  for (int a = 0; a < ex.size(); ++a) {
    const std::int16_t* erow = ex.row(static_cast<std::uint8_t>(a));
    Score* p = profile.data() + static_cast<std::size_t>(a) * width;
    for (int x = 0; x < cols; ++x)
      p[x] = erow[seq[static_cast<std::size_t>(r + x)]];
    std::fill(p + cols, p + width, 0);
  }
  util::AlignedBuffer<Score> max_y(width);
  std::fill_n(max_y.data(), width, kNegInf);

  alignas(64) Score x_ext[L] = {};  // x * ext, lanes x = 1..L
  for (int l = 0; l < L; ++l) x_ext[l] = (l + 1) * ext;
  const Vec first_x_ext = Ops::load(x_ext);
  const Vec step = Ops::set1(L * ext);
  const Vec vopen = Ops::set1(open);
  const Vec vext = Ops::set1(ext);

  TracebackMatrix mat(rows, cols, L);
  for (int y = 1; y <= rows; ++y) {
    const int i = y - 1;
    const Score* prev = mat.row(y - 1);
    Score* cur = mat.row(y);
    const Score* e = profile.data() + seq[static_cast<std::size_t>(i)] * width;
    const std::atomic<std::uint64_t>* obits =
        (job.overrides != nullptr && !job.overrides->row_empty(i))
            ? job.overrides->row_bits(i)
            : nullptr;
    const std::int64_t bit0 = r - i - 1;  // bit of column x: bit0 + x - 1
    const std::int64_t words = (m - 1 - i + 63) / 64;
    // Every lane: the max of H(y-1, k-1) + k*ext left of the vector.
    Vec carry = Ops::set1(kNegInf);
    Vec x_ext_v = first_x_ext;
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(width); k += L) {
      const Vec diag = Ops::loadu(prev + k - 1);
      // Exclusive prefix max of diag + x*ext, then the carry.
      const Vec lifted = prefix_max<Ops>(Ops::adds(diag, x_ext_v));
      const Vec max_x = Ops::subs(
          Ops::max(Ops::template shift_up<1>(lifted, kNegInf), carry),
          Ops::adds(x_ext_v, vopen));
      carry = Ops::max(carry, Ops::broadcast_last(lifted));
      const Vec my = Ops::load(max_y.data() + k);
      Vec h = Ops::max(Ops::zero(),
                       Ops::adds(Ops::load(e + k),
                                 Ops::max(Ops::max(max_x, my), diag)));
      if (obits != nullptr)
        h = Ops::zero_lanes(h, override_lanes<L>(obits, bit0 + k, words));
      Ops::store(cur + k, h);
      Ops::store(max_y.data() + k,
                 Ops::subs(Ops::max(Ops::subs(diag, vopen), my), vext));
      x_ext_v = Ops::adds(x_ext_v, step);
    }
  }
  return mat;
}

}  // namespace
}  // namespace repro::align::detail
