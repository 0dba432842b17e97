#include "align/bottom_row_store.hpp"

#include <limits>

#include "util/check.hpp"

namespace repro::align {

BottomRowStore::BottomRowStore(int m) : m_(m) {
  REPRO_CHECK(m >= 2);
  const auto mm = static_cast<std::size_t>(m);
  data_.assign(mm * (mm - 1) / 2, 0);
  computed_.assign(mm, false);
}

void BottomRowStore::store(int r, std::span<const Score> row) {
  REPRO_CHECK(r >= 1 && r < m_);
  REPRO_CHECK_MSG(computed_[static_cast<std::size_t>(r)] == 0,
                  "bottom row " << r << " stored twice");
  REPRO_CHECK(row.size() == static_cast<std::size_t>(m_ - r));
  std::int16_t* dst = data_.data() + offset(r);
  for (std::size_t x = 0; x < row.size(); ++x) {
    REPRO_CHECK_MSG(row[x] >= std::numeric_limits<std::int16_t>::min() &&
                        row[x] <= std::numeric_limits<std::int16_t>::max(),
                    "score " << row[x]
                             << " overflows the i16 bottom-row archive; "
                                "rerun with --precision i32 --low-memory, "
                                "which recomputes bottom rows instead");
    dst[x] = static_cast<std::int16_t>(row[x]);
  }
  computed_[static_cast<std::size_t>(r)] = 1;
}

std::span<const std::int16_t> BottomRowStore::row(int r) const {
  REPRO_CHECK(r >= 1 && r < m_);
  REPRO_CHECK_MSG(computed_[static_cast<std::size_t>(r)] != 0,
                  "bottom row " << r << " requested before first alignment");
  return {data_.data() + offset(r), static_cast<std::size_t>(m_ - r)};
}

}  // namespace repro::align
