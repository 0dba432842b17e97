// Boundary values of the lane-ops template (align/vec_ops.hpp): every
// portable and SSE2 VecOps instantiation the engine table uses, plus the
// 64-byte i16 x 32 vector of the AVX2 escalation rung split into 16-byte
// parts, checked lane by lane against a scalar reference at the edges of
// each element range. The 8-byte vectors (4 x i16, 8 x u8) ride in the low
// half of a register, so their stores must not touch the bytes after them.
// The traceback fill's lane-crossing ops are checked on its 4 x i32 rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "align/vec_ops.hpp"

namespace repro::align {
namespace {

template <typename T, int Lanes>
using Portable = detail::VecOps<T, Lanes, Isa::kPortable>;
template <typename T, int Lanes>
using Sse2 = detail::VecOps<T, Lanes, Isa::kSse2>;

template <typename T>
std::vector<int> boundary_values() {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    return {0, 1, 254, 255};
  } else if constexpr (std::is_same_v<T, std::int16_t>) {
    return {-32768, -32767, -1, 0, 1, 32766, 32767};
  } else {
    // i32 lanes never saturate: sums and differences stay inside i32.
    return {-(1 << 29), -1, 0, 1, (1 << 29) - 1};
  }
}

/// Saturating u8/i16 results, plain results for i32.
template <typename T>
int clamp_to(long long x) {
  if constexpr (sizeof(T) == 4) return static_cast<int>(x);
  return static_cast<int>(
      std::clamp<long long>(x, std::numeric_limits<T>::min(),
                            std::numeric_limits<T>::max()));
}

template <class Ops>
class VecOpsBoundary : public ::testing::Test {};

using Rows = ::testing::Types<
    // Portable rows: simd4x32-, simd4-, simd8-, simd8x8- and auto-generic.
    Portable<std::int32_t, 4>, Portable<std::int16_t, 4>,
    Portable<std::int16_t, 8>, Portable<std::uint8_t, 8>,
    // SSE2 rows: simd4, simd8, simd16x8 and auto-sse2 (u8 x 16, i16 x 16).
    Sse2<std::int16_t, 4>, Sse2<std::int16_t, 8>, Sse2<std::uint8_t, 16>,
    Sse2<std::int16_t, 16>,
    // The 64-byte i16 x 32 escalation vector, split into 16-byte parts.
    Portable<std::int16_t, 32>, Sse2<std::int16_t, 32>>;

class RowName {
 public:
  template <class Ops>
  static std::string GetName(int) {
    return std::string(Ops::kSaturating
                           ? (sizeof(typename Ops::Elem) == 1 ? "u8" : "i16")
                           : "i32") +
           "x" + std::to_string(Ops::kLanes) +
           (std::is_same_v<Ops, Portable<typename Ops::Elem, Ops::kLanes>>
                ? "_portable"
                : "_sse2");
  }
};

TYPED_TEST_SUITE(VecOpsBoundary, Rows, RowName);

TYPED_TEST(VecOpsBoundary, MatchesScalarReferenceAtTheRangeEdges) {
  using Ops = TypeParam;
  using T = typename Ops::Elem;
  constexpr int L = Ops::kLanes;
  constexpr T kSentinel = 0x5A;
  std::vector<std::pair<int, int>> pairs;
  for (const int a : boundary_values<T>())
    for (const int b : boundary_values<T>()) pairs.emplace_back(a, b);

  const auto expect_op = [&](const char* op, const T* a, const T* b,
                             typename Ops::Vec result, auto reference) {
    // One slot past the lanes catches a store wider than the vector.
    alignas(64) T out[L + 1];
    out[L] = kSentinel;
    Ops::store(out, result);
    EXPECT_EQ(out[L], kSentinel) << op << " stored past its lanes";
    for (int k = 0; k < L; ++k)
      EXPECT_EQ(int{out[k]}, reference(int{a[k]}, int{b[k]}))
          << op << "(" << int{a[k]} << ", " << int{b[k]} << ") in lane " << k;
  };
  for (std::size_t base = 0; base < pairs.size(); base += L) {
    alignas(64) T a[L];
    alignas(64) T b[L];
    for (int k = 0; k < L; ++k) {
      const auto& [x, y] = pairs[(base + static_cast<std::size_t>(k)) %
                                 pairs.size()];
      a[k] = static_cast<T>(x);
      b[k] = static_cast<T>(y);
    }
    const auto va = Ops::load(a);
    const auto vb = Ops::load(b);
    expect_op("adds", a, b, Ops::adds(va, vb),
              [](int x, int y) { return clamp_to<T>(1LL * x + y); });
    expect_op("subs", a, b, Ops::subs(va, vb),
              [](int x, int y) { return clamp_to<T>(1LL * x - y); });
    expect_op("max", a, b, Ops::max(va, vb),
              [](int x, int y) { return std::max(x, y); });
    expect_op("and_", a, b, Ops::and_(va, vb), [](int x, int y) {
      return int{static_cast<T>(static_cast<T>(x) & static_cast<T>(y))};
    });
    expect_op("set1", a, b, Ops::set1(a[0]),
              [&](int, int) { return int{a[0]}; });
  }
}

// The traceback fill's lane-crossing ops on its portable and SSE2 rows
// (4 x i32), lane by lane against a scalar reference.
template <class Ops>
void check_traceback_ops() {
  constexpr int L = Ops::kLanes;
  alignas(64) Score in[L + 1];
  for (int k = 0; k <= L; ++k) in[k] = (k % 2 == 0 ? 1 : -1) * (7 + 3 * k);
  const auto lanes = [](typename Ops::Vec v) {
    alignas(64) Score out[L];
    Ops::store(out, v);
    return std::vector<Score>(out, out + L);
  };
  const auto a = Ops::load(in);
  std::vector<Score> want(L);
  for (int k = 0; k < L; ++k) want[k] = in[k + 1];
  EXPECT_EQ(lanes(Ops::loadu(in + 1)), want) << "loadu";
  for (int k = 0; k < L; ++k) want[k] = k < 1 ? kNegInf : in[k - 1];
  EXPECT_EQ(lanes(Ops::template shift_up<1>(a, kNegInf)), want) << "shift 1";
  for (int k = 0; k < L; ++k) want[k] = k < 2 ? 5 : in[k - 2];
  EXPECT_EQ(lanes(Ops::template shift_up<2>(a, 5)), want) << "shift 2";
  for (int k = 0; k < L; ++k) want[k] = in[L - 1];
  EXPECT_EQ(lanes(Ops::broadcast_last(a)), want) << "broadcast_last";
  for (const std::uint64_t bits : {0x0ULL, 0x5ULL, 0xAULL, 0xFULL, ~0ULL}) {
    for (int k = 0; k < L; ++k) want[k] = (bits >> k) & 1 ? 0 : in[k];
    EXPECT_EQ(lanes(Ops::zero_lanes(a, bits)), want) << "zero_lanes " << bits;
  }
}

TEST(VecOpsTraceback, LaneCrossingOpsMatchScalarReference) {
  check_traceback_ops<Portable<Score, 4>>();
}

}  // namespace
}  // namespace repro::align
