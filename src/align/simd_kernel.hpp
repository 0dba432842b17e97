// Coarse-grained SIMD alignment kernel (paper §4.1, Figs. 6 & 7).
//
// One sweep computes `count` *neighbouring* rectangles — splits r0, r0+1,
// ..., r0+count-1 — in up to L lanes. The element type is a template
// parameter of the Ops policy: saturating i16 (the paper's width),
// saturating unsigned-biased u8 (double the lanes per register), or plain
// i32 (no saturation limit):
//
//   * Columns are indexed by global suffix position j in [r0, m); lane k
//     (split rk = r0+k) is valid for j >= rk, i.e. column c = j - r0 >= k.
//     The first count-1 columns therefore carry per-lane masks; forcing
//     H = 0 in a lane's invalid columns reproduces that lane's true left
//     boundary exactly (local-alignment scores are clamped at zero, so the
//     only contamination paths — gap maxima fed from masked cells — are
//     strictly negative and never win). This is the paper's "corrections for
//     the left and bottom borders".
//   * Cell (row y, column j) aligns the pair (i, j) = (y-1, j) in *every*
//     lane, so a single exchange-matrix lookup is broadcast to all lanes and
//     a single override-triangle bit zeroes all lanes at once. In rows
//     deeper than a lane's rectangle the pair degenerates to i >= j; those
//     lane-cells are garbage that is never extracted, and the override test
//     is skipped there (the triangle is a strict upper triangle).
//   * Rows are swept to rows = r0+count-1; lane k's bottom row is extracted
//     when y == rk.
//   * Matrix state is interleaved in memory (Fig. 7): entry (c, k) lives at
//     index c*L + k, so one aligned vector load fetches one column of all
//     lanes.
//   * Cache-aware striping (§4.1): columns are processed in stripes whose
//     row state fits in L1; per-row (H, MaxX) carries flow across stripe
//     boundaries.
//   * Saturation safety: a running per-lane peak (masked so garbage
//     lane-cells cannot contribute) certifies the sweep. A sweep is clean
//     when the peak stays at or below the element type's certification
//     limit — the largest value from which one more profile add provably
//     cannot saturate (i16: 32766; u8: 255 - bias - max_score). Peaks above
//     the limit are reported conservatively as saturated: the caller either
//     re-runs the group at a wider precision (adaptive engines; their u8
//     sweep stops at the first stripe boundary past the limit) or throws.
//   * Unsigned u8 lanes (Farrar/SSW-style): profile entries carry
//     bias = max(0, -min_score()), the H update is
//     subs(adds(inner, e_biased), bias) = max(0, inner + score), and gap
//     maxima clamp at 0 instead of running to -inf. This is lossless:
//     inner = max(mx, my, diag) with diag >= 0 (a previous H or the zero
//     boundary), and each clamped gap chain X satisfies
//     X_true <= X_clamped <= max(X_true, 0) inductively (the update
//     X' = max(gap_start, X) - e preserves it, and gap_start >= its true
//     value by the same invariant on diag-fed starts) — so whenever a
//     clamped term wins the inner max it equals a value >= 0 that the true
//     recurrence also produces, and H trajectories are identical as long as
//     no adds saturates, which the peak certification guarantees.
//
// The kernel is templated over an Ops policy (SSE2, AVX2, or a portable
// scalar-lane fallback) providing saturating adds/subs, max, and masking.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "align/engine_detail.hpp"
#include "align/override_triangle.hpp"
#include "align/query_profile.hpp"
#include "align/types.hpp"
#include "check/contracts.hpp"
#include "util/aligned.hpp"

namespace repro::align::detail {

/// Portable lane ops; the compiler is free to auto-vectorize these loops
/// (the paper's remark that vectorizing compilers can handle data-independent
/// lanes). Also used to cross-check the intrinsic engines in tests.
template <int W>
struct GenericOps {
  static constexpr int kLanes = W;
  using Elem = std::int16_t;
  static constexpr bool kSaturating = true;
  struct Vec {
    std::int16_t v[W];
  };

  static Vec zero() {
    Vec r{};
    return r;
  }
  static Vec set1(std::int16_t x) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = x;
    return r;
  }
  static Vec load(const std::int16_t* p) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = p[k];
    return r;
  }
  static void store(std::int16_t* p, Vec a) {
    for (int k = 0; k < W; ++k) p[k] = a.v[k];
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static Vec adds(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) {
      const int s = int{a.v[k]} + int{b.v[k]};
      r.v[k] = static_cast<std::int16_t>(std::clamp(s, -32768, 32767));
    }
    return r;
  }
  static Vec subs(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) {
      const int s = int{a.v[k]} - int{b.v[k]};
      r.v[k] = static_cast<std::int16_t>(std::clamp(s, -32768, 32767));
    }
    return r;
  }
  static Vec and_(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k)
      r.v[k] = static_cast<std::int16_t>(a.v[k] & b.v[k]);
    return r;
  }
};

/// Portable 32-bit lane ops: plain (non-saturating) arithmetic; scores are
/// bounded well inside i32 so wrapping cannot occur (the max local-alignment
/// score is max_exchange x min(rows, cols) < 2^24 at any realistic scale).
template <int W>
struct GenericOps32 {
  static constexpr int kLanes = W;
  using Elem = align::Score;
  static constexpr bool kSaturating = false;
  struct Vec {
    align::Score v[W];
  };

  static Vec zero() {
    Vec r{};
    return r;
  }
  static Vec set1(align::Score x) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = x;
    return r;
  }
  static Vec load(const align::Score* p) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = p[k];
    return r;
  }
  static void store(align::Score* p, Vec a) {
    for (int k = 0; k < W; ++k) p[k] = a.v[k];
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static Vec adds(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] + b.v[k];
    return r;
  }
  static Vec subs(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] - b.v[k];
    return r;
  }
  static Vec and_(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] & b.v[k];
    return r;
  }
};

/// Portable unsigned u8 lane ops: saturating-unsigned arithmetic over biased
/// profile entries (see the header comment). Twice the lanes of GenericOps
/// in the same register width; adds clamps at 255, subs clamps at 0.
template <int W>
struct GenericOps8 {
  static constexpr int kLanes = W;
  using Elem = std::uint8_t;
  static constexpr bool kSaturating = true;
  struct Vec {
    std::uint8_t v[W];
  };

  static Vec zero() {
    Vec r{};
    return r;
  }
  static Vec set1(std::uint8_t x) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = x;
    return r;
  }
  static Vec load(const std::uint8_t* p) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = p[k];
    return r;
  }
  static void store(std::uint8_t* p, Vec a) {
    for (int k = 0; k < W; ++k) p[k] = a.v[k];
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static Vec adds(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) {
      const int s = int{a.v[k]} + int{b.v[k]};
      r.v[k] = static_cast<std::uint8_t>(s > 255 ? 255 : s);
    }
    return r;
  }
  static Vec subs(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k) {
      const int s = int{a.v[k]} - int{b.v[k]};
      r.v[k] = static_cast<std::uint8_t>(s < 0 ? 0 : s);
    }
    return r;
  }
  static Vec and_(Vec a, Vec b) {
    Vec r;
    for (int k = 0; k < W; ++k)
      r.v[k] = static_cast<std::uint8_t>(a.v[k] & b.v[k]);
    return r;
  }
};

/// Scratch buffers reused across group alignments (one instance per engine
/// and precision; engines are single-threaded by contract).
template <class Ops>
struct SimdScratchT {
  using Elem = typename Ops::Elem;
  static_assert(std::is_integral_v<Elem> &&
                    (sizeof(Elem) == 1 || sizeof(Elem) == 2 ||
                     sizeof(Elem) == 4),
                "SIMD scratch elements are u8, i16, or i32");
  // The kernel issues aligned loads of Ops::Vec (up to a 64-byte ZMM
  // register) on these rows; AlignedAllocator's cache-line alignment must
  // cover that.
  static_assert(util::kCacheLine % alignof(typename Ops::Vec) == 0,
                "scratch rows must satisfy the Ops vector's aligned loads");
  std::vector<Elem, util::AlignedAllocator<Elem>> h;
  std::vector<Elem, util::AlignedAllocator<Elem>> max_y;
  std::vector<Elem, util::AlignedAllocator<Elem>> carry_h;
  std::vector<Elem, util::AlignedAllocator<Elem>> carry_mx;
  /// Per-stripe diagonal entry vectors captured from a restored checkpoint
  /// (one aligned slot per stripe; see run_simd_group).
  std::vector<Elem, util::AlignedAllocator<Elem>> resume_diag;
};

/// resize() that never shrinks: steady-state sweeps reuse capacity, and the
/// slack past the live size is never read.
template <typename V>
inline void grow_to(V& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// "Minus infinity" for the element type (i16 lanes rely on saturation).
/// Unsigned lanes have no negatives: their gap maxima clamp at 0, which the
/// header comment's invariant shows is lossless.
template <typename Elem>
constexpr Elem neg_inf_of() {
  if constexpr (!std::is_signed_v<Elem>) {
    return 0;
  } else if constexpr (sizeof(Elem) == 2) {
    return kNegInf16;
  } else {
    return kNegInf;
  }
}

#if defined(__GNUC__)
#define REPRO_FORCE_INLINE inline __attribute__((always_inline))
#else
#define REPRO_FORCE_INLINE inline
#endif

/// What one DP row's column loop reads besides its carried vectors.
template <class Ops>
struct RowOperands {
  using Elem = typename Ops::Elem;
  using Vec = typename Ops::Vec;
  Elem* h;                 ///< interleaved H, entry (c, k) at c*L + k
  Elem* max_y;             ///< interleaved MaxY, same layout
  const Elem* prow;        ///< profile row of residue seq[i], entry j
  const Elem* colmask;     ///< colmask row c at colmask + c*L
  const std::atomic<std::uint64_t>* obits;  ///< override words of row i, or null
  int r0;
  int i;                   ///< residue of this row (y - 1)
  Vec open, ext, bias, peak_mask;
};

/// Vectors carried from column to column (and, for `peak`, across rows).
template <class Ops>
struct ColumnCarry {
  typename Ops::Vec diag, mx, peak;
};

/// Sweeps columns [c_begin, c_end) of one DP row. Specialised on three
/// facts the caller hoists out of the loop: the columns carry lane masks
/// (c < count-1), the row is deep (y > r0, so garbage lanes are masked out
/// of the saturation peak), and the override word `word` has bits to test.
/// Every operand is copied into a local first: a u8 store may alias any
/// memory, so fields read through a pointer would be reloaded per column.
template <class Ops, bool kColMask, bool kPeakMask, bool kOverride>
REPRO_FORCE_INLINE void sweep_columns(const RowOperands<Ops>& row,
                                      int c_begin, int c_end,
                                      std::uint64_t word,
                                      ColumnCarry<Ops>& carry) {
  constexpr int L = Ops::kLanes;
  using Vec = typename Ops::Vec;
  using Elem = typename Ops::Elem;
  Elem* const h = row.h;
  Elem* const max_y = row.max_y;
  const Elem* const e_row = row.prow + row.r0;  // entry of column c at c
  const Elem* const colmask = row.colmask;
  const int bit0 = row.r0 - row.i - 1;  // override bit of column c: bit0 + c
  const Vec open = row.open;
  const Vec ext = row.ext;
  [[maybe_unused]] const Vec bias = row.bias;
  [[maybe_unused]] const Vec peak_mask = row.peak_mask;
  const Vec zero = Ops::zero();
  Vec diag = carry.diag;
  Vec mx = carry.mx;
  Vec peak = carry.peak;
  for (int c = c_begin; c < c_end; ++c) {
    Elem* const hp = h + static_cast<std::size_t>(c) * L;
    Elem* const myp = max_y + static_cast<std::size_t>(c) * L;
    const Vec up = Ops::load(hp);
    const Vec my = Ops::load(myp);
    const Vec inner = Ops::max(mx, Ops::max(my, diag));
    const Vec e = Ops::set1(e_row[c]);
    Vec hv;
    if constexpr (!std::is_signed_v<Elem>) {
      // inner >= 0 and the profile entry carries the bias, so
      // subs(adds(inner, e+bias), bias) = max(0, inner + score) exactly
      // whenever adds does not saturate (certified by the peak).
      hv = Ops::subs(Ops::adds(inner, e), bias);
    } else {
      hv = Ops::max(zero, Ops::adds(e, inner));
    }
    if constexpr (kOverride) {
      if (((word >> ((bit0 + c) & 63)) & 1) != 0) hv = zero;
    }
    if constexpr (kColMask)
      hv = Ops::and_(hv, Ops::load(colmask + static_cast<std::size_t>(c) * L));
    if constexpr (kPeakMask) {
      peak = Ops::max(peak, Ops::and_(hv, peak_mask));
    } else {
      peak = Ops::max(peak, hv);
    }
    Ops::store(hp, hv);
    const Vec gap_start = Ops::subs(diag, open);
    mx = Ops::subs(Ops::max(gap_start, mx), ext);
    Ops::store(myp, Ops::subs(Ops::max(gap_start, my), ext));
    diag = up;
  }
  carry = {diag, mx, peak};
}

/// Sweeps columns [c_begin, c_end) of one DP row, testing override bits
/// only where the row has any and only in 64-column chunks whose override
/// word is non-zero. Columns with j <= i (garbage lane-cells of deep rows)
/// have no bit: the triangle is strict.
template <class Ops, bool kColMask, bool kPeakMask>
REPRO_FORCE_INLINE void sweep_span(const RowOperands<Ops>& row, int c_begin,
                                   int c_end, ColumnCarry<Ops>& carry) {
  if (c_begin >= c_end) return;
  if (row.obits == nullptr) {
    sweep_columns<Ops, kColMask, kPeakMask, false>(row, c_begin, c_end, 0,
                                                   carry);
    return;
  }
  const int bit0 = row.r0 - row.i - 1;
  int c = std::clamp(-bit0, c_begin, c_end);  // first column with j > i
  sweep_columns<Ops, kColMask, kPeakMask, false>(row, c_begin, c, 0, carry);
  while (c < c_end) {
    const int b = bit0 + c;
    const int next = std::min(c_end, c + 64 - (b & 63));
    const std::uint64_t word =
        row.obits[b >> 6].load(std::memory_order_relaxed);
    if (word == 0) {
      sweep_columns<Ops, kColMask, kPeakMask, false>(row, c, next, 0, carry);
    } else {
      sweep_columns<Ops, kColMask, kPeakMask, true>(row, c, next, word,
                                                    carry);
    }
    c = next;
  }
}

/// Sweeps one group. `profile` replaces the per-cell exchange-matrix lookup
/// with one indexed load (unsigned elements need its folded bias and must
/// get a feasible one). `saturated` selects the saturation protocol: when
/// null a saturating sweep throws (explicit fixed-precision engines); when
/// non-null it is set to whether the sweep saturated — the sweep then stops
/// at the first stripe whose certified peak passes the limit, the sink is
/// emptied (its rows were computed from possibly-clamped state and are
/// uncertified) and the outputs are garbage the caller must discard by
/// re-running at wider precision.
template <class Ops>
void run_simd_group(const GroupJob& job, std::span<const std::span<Score>> out,
                    int stripe_cols, SimdScratchT<Ops>& scratch,
                    const QueryProfileT<typename Ops::Elem>& profile,
                    bool* saturated = nullptr) {
  constexpr int L = Ops::kLanes;
  using Vec = typename Ops::Vec;
  using Elem = typename Ops::Elem;
  constexpr bool kUnsigned = !std::is_signed_v<Elem>;

  const auto& seq = job.seq;
  const int m = static_cast<int>(seq.size());
  const int r0 = job.r0;
  const int count = job.count;
  const int width = m - r0;          // columns of the widest lane (lane 0)
  const int rows = r0 + count - 1;   // rows of the deepest lane
  if constexpr (kUnsigned) {
    static_assert(Ops::kSaturating, "unsigned lanes must saturate");
    REPRO_CHECK_MSG(profile.feasible(),
                    "unsigned u8 kernels require a feasible biased query "
                    "profile (group r0=" << r0 << ")");
  }
  REPRO_CHECK(profile.width() == m);

  // Mask tables, kept as aligned arrays so vectors of over-aligned register
  // types never land in (insufficiently aligned) std::vector storage.
  // colmask row c: lane k alive iff c >= k — masks the first count-1 columns.
  // deepmask row t-1 (t = y - r0 >= 1): lane k alive iff k >= t — masks
  // garbage lane-cells out of the saturation peak in the deepest rows.
  alignas(64) Elem colmask[L * L];
  alignas(64) Elem deepmask[L * L];
  for (int c = 0; c + 1 < count; ++c)
    for (int k = 0; k < L; ++k)
      colmask[c * L + k] = static_cast<Elem>(c >= k ? -1 : 0);
  for (int t = 1; t < count; ++t)
    for (int k = 0; k < L; ++k)
      deepmask[(t - 1) * L + k] = static_cast<Elem>(k >= t ? -1 : 0);

  auto& h = scratch.h;
  auto& max_y = scratch.max_y;
  auto& carry_h = scratch.carry_h;
  auto& carry_mx = scratch.carry_mx;
  const std::size_t state_elems = static_cast<std::size_t>(width) * L;
  const std::size_t state_bytes = state_elems * sizeof(Elem);

  // Checkpoint resume: restore the interleaved (H, MaxY) state as the kernel
  // left it after DP row resume->row and re-enter the sweep one row below.
  // Stripe carries need no restoring — during the resumed sweep every carry
  // of a row >= y_begin is written by an earlier stripe before a later
  // stripe reads it; the only checkpoint-sourced carry is each stripe's
  // initial diagonal (H[y_begin-1][c0-1]), captured below.
  int y_begin = 1;
  if (job.resume != nullptr) {
    const CheckpointView& ck = *job.resume;
    REPRO_CHECK_MSG(ck.lanes == L &&
                        ck.elem_size == static_cast<int>(sizeof(Elem)) &&
                        ck.bytes == state_bytes && ck.row >= 1 && ck.row < r0,
                    "checkpoint state does not match this kernel's layout "
                    "(group r0=" << r0 << ")");
    grow_to(h, state_elems);
    grow_to(max_y, state_elems);
    std::memcpy(h.data(), ck.h, state_bytes);
    std::memcpy(max_y.data(), ck.max_y, state_bytes);
    y_begin = ck.row + 1;
    if constexpr (check::kContractsEnabled && !kUnsigned) {
      // Checkpoint rows are emitted at y <= r0-1, above every lane's bottom
      // row, so every restored lane-cell is a genuine (clamped) local score.
      // (Unsigned elements satisfy this by type.)
      for (std::size_t e = 0; e < state_elems; ++e)
        REPRO_DCHECK_MSG(h[e] >= 0, "restored checkpoint H negative at elem "
                                        << e << " (group r0=" << r0 << ")");
    }
  } else {
    h.assign(state_elems, 0);
    max_y.assign(state_elems, neg_inf_of<Elem>());
  }
  REPRO_DCHECK_MSG(util::is_vector_aligned(h.data(), alignof(Vec)) &&
                       util::is_vector_aligned(max_y.data(), alignof(Vec)),
                   "SIMD scratch rows must be " << alignof(Vec)
                                                << "-byte aligned");
  const bool resumed = y_begin > 1;
  // Local copies: a u8 store may alias the vectors' own pointer fields.
  Elem* const hbase = h.data();
  Elem* const mybase = max_y.data();

  const int stripe = stripe_cols <= 0 ? width : stripe_cols;
  const bool striped = stripe < width;
  if (striped) {
    // Grow-only: carry values are only ever read after an earlier stripe of
    // the same sweep wrote them (the stripe-0 carry_h read feeds a diagonal
    // that stripe 0 never uses), so stale contents are harmless.
    grow_to(carry_h, static_cast<std::size_t>(rows + 1) * L);
    grow_to(carry_mx, static_cast<std::size_t>(rows + 1) * L);
  }
  Elem* const carry_h_base = carry_h.data();
  Elem* const carry_mx_base = carry_mx.data();

  // A restored stripe's first row needs the checkpoint's H at the column
  // left of the stripe as its diagonal, but earlier stripes overwrite h[]
  // while they sweep — capture those vectors up front, one slot per stripe,
  // each a whole number of cache lines that holds a full lane vector so the
  // aligned vector loads stay legal.
  constexpr std::size_t kDiagSlot =
      std::max(util::kCacheLine, L * sizeof(Elem)) / sizeof(Elem);
  auto& resume_diag = scratch.resume_diag;
  if (resumed && striped) {
    const int nstripes = (width + stripe - 1) / stripe;
    grow_to(resume_diag, static_cast<std::size_t>(nstripes) * kDiagSlot);
    for (int s = 1; s < nstripes; ++s)
      std::memcpy(
          resume_diag.data() + static_cast<std::size_t>(s) * kDiagSlot,
          hbase + (static_cast<std::size_t>(s) * stripe - 1) * L,
          sizeof(Elem) * L);
  }

  // Checkpoint emission grid: rows on the sink's stride plus its top row,
  // clamped above every lane's bottom row so outputs are always recomputed.
  CheckpointSink* sink = job.sink;
  if (sink != nullptr) {
    REPRO_CHECK(sink->stride >= 1);
    sink->lanes = L;
    sink->elem_size = static_cast<int>(sizeof(Elem));
    sink->prepare(y_begin, std::min(sink->top_row, r0 - 1), state_bytes);
  }

  // Certification limit: the largest peak from which one more adds input
  // provably could not have saturated. Every adds operand is an H value
  // <= peak, so peak <= limit proves no clamp occurred anywhere in the
  // sweep; peak > limit is treated as saturated (conservatively — the
  // adaptive driver just re-runs the group at wider precision).
  //   i16: limit 32766 (a peak of 32767 is indistinguishable from a clamp)
  //   u8:  limit 255 - bias - max_score (one biased profile add of slack)
  // Rows <= y_begin-1 were certified by the sweep that emitted the restored
  // checkpoint (saturating sweeps never keep their checkpoints).
  Vec v_peak = Ops::zero();  // running max of valid lane-cells
  const auto first_saturated_lane = [&]() -> int {
    if constexpr (Ops::kSaturating) {
      Elem sat_limit;
      if constexpr (kUnsigned) {
        sat_limit = static_cast<Elem>(std::numeric_limits<Elem>::max() -
                                      profile.bias() - profile.max_score());
      } else {
        sat_limit = static_cast<Elem>(std::numeric_limits<Elem>::max() - 1);
      }
      alignas(64) Elem peakbuf[L];
      Ops::store(peakbuf, v_peak);
      for (int k = 0; k < count; ++k)
        if (peakbuf[k] > sat_limit) return k;
    }
    return -1;
  };

  RowOperands<Ops> row{};
  row.h = hbase;
  row.max_y = mybase;
  row.colmask = colmask;
  row.r0 = r0;
  row.open = Ops::set1(static_cast<Elem>(job.scoring->gap.open));
  row.ext = Ops::set1(static_cast<Elem>(job.scoring->gap.extend));
  row.bias = Ops::set1(static_cast<Elem>(profile.bias()));
  const int c_masked = count - 1;  // columns [0, count-1) carry lane masks

  for (int c0 = 0; c0 < width; c0 += stripe) {
    const int c1 = std::min(width, c0 + stripe);
    const int c_split = std::clamp(c_masked, c0, c1);
    // Boundary row (y = 0) carry: H = 0, MaxX = -inf. Resumed stripes past
    // the first instead enter with the checkpoint's diagonal.
    Vec old_carry_above = Ops::zero();
    if (resumed && c0 > 0)
      old_carry_above = Ops::load(
          resume_diag.data() +
          static_cast<std::size_t>(c0 / stripe) * kDiagSlot);
    int emit_idx = 0;
    for (int y = y_begin; y <= rows; ++y) {
      const int i = y - 1;
      row.i = i;
      row.prow = profile.row(seq[static_cast<std::size_t>(i)]);
      row.obits = (job.overrides != nullptr && !job.overrides->row_empty(i))
                      ? job.overrides->row_bits(i)
                      : nullptr;
      ColumnCarry<Ops> carry;
      carry.diag = c0 == 0 ? Ops::zero() : old_carry_above;
      carry.mx = c0 == 0 ? Ops::set1(neg_inf_of<Elem>())
                         : Ops::load(carry_mx_base +
                                     static_cast<std::size_t>(y) * L);
      carry.peak = v_peak;
      const int deep = y - r0;  // > 0 in the last count-1 rows
      if (deep > 0) {
        row.peak_mask = Ops::load(deepmask + (deep - 1) * L);
        sweep_span<Ops, true, true>(row, c0, c_split, carry);
        sweep_span<Ops, false, true>(row, c_split, c1, carry);
      } else {
        sweep_span<Ops, true, false>(row, c0, c_split, carry);
        sweep_span<Ops, false, false>(row, c_split, c1, carry);
      }
      v_peak = carry.peak;
      if (striped) {
        Elem* const ch = carry_h_base + static_cast<std::size_t>(y) * L;
        old_carry_above = Ops::load(ch);
        Ops::store(ch, Ops::load(hbase + static_cast<std::size_t>(c1 - 1) * L));
        Ops::store(carry_mx_base + static_cast<std::size_t>(y) * L, carry.mx);
      }
      // Extract lane k's bottom row when this is its last row.
      const int k = y - r0;
      if (k >= 0 && k < count) {
        auto row_out = out[static_cast<std::size_t>(k)];
        for (int c = std::max(c0, k); c < c1; ++c)
          row_out[static_cast<std::size_t>(c - k)] = static_cast<Score>(
              hbase[static_cast<std::size_t>(c) * L +
                    static_cast<std::size_t>(k)]);
        if constexpr (check::kContractsEnabled) {
          for (int c = std::max(c0, k); c < c1; ++c)
            REPRO_DCHECK_MSG(row_out[static_cast<std::size_t>(c - k)] >= 0,
                             "negative bottom-row H (split r=" << r0 + k
                                 << ", column " << c - k << ")");
        }
      }
      // Emit this stripe's slice of a checkpoint row: h/max_y now hold
      // exactly the state a resume at row y+1 restores.
      if (sink != nullptr && emit_idx < sink->count &&
          y == sink->rows[static_cast<std::size_t>(emit_idx)].row) {
        CheckpointRow& cr = sink->rows[static_cast<std::size_t>(emit_idx)];
        const std::size_t off = static_cast<std::size_t>(c0) * L * sizeof(Elem);
        const std::size_t len =
            static_cast<std::size_t>(c1 - c0) * L * sizeof(Elem);
        std::memcpy(cr.h.data() + off,
                    hbase + static_cast<std::size_t>(c0) * L, len);
        std::memcpy(cr.max_y.data() + off,
                    mybase + static_cast<std::size_t>(c0) * L, len);
        if constexpr (check::kContractsEnabled && !kUnsigned) {
          // The emitted slice must satisfy the same non-negativity the
          // resume path asserts before re-entering the sweep. (Unsigned
          // elements satisfy it by type.)
          for (int c = c0; c < c1; ++c)
            for (int k2 = 0; k2 < L; ++k2)
              REPRO_DCHECK_MSG(
                  hbase[static_cast<std::size_t>(c) * L +
                        static_cast<std::size_t>(k2)] >= 0,
                  "negative H in emitted checkpoint row " << y);
        }
        ++emit_idx;
      }
    }
    // A reporting sweep stops at the first stripe whose peak passes the
    // limit: the peak only grows, so the end-of-sweep check could only
    // agree, and an escalating group skips the rest of a wasted sweep.
    if (saturated != nullptr && first_saturated_lane() >= 0) {
      *saturated = true;
      if (sink != nullptr) sink->count = 0;
      return;
    }
  }

  if (saturated != nullptr) {
    *saturated = false;
    return;
  }
  const int k = first_saturated_lane();
  REPRO_CHECK_MSG(k < 0, (kUnsigned ? "u8" : "i16")
                             << " SIMD lane saturated (split r=" << r0 + k
                             << "); use an adaptive or wider engine for this "
                                "input");
}

}  // namespace repro::align::detail
