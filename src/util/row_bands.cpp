#include "src/util/row_bands.hpp"

#include <algorithm>

#include "src/pool/pool.hpp"

namespace summagen::util {

void RowBands::run(
    const std::function<void(std::int64_t, std::int64_t)>& body) const {
  sgpool::parallel_for(0, rows, height, body);
}

RowBands row_bands(std::int64_t rows, std::int64_t cols) {
  if (rows * cols < kRowBandSerialCut) {
    return {rows, std::max<std::int64_t>(1, rows)};
  }
  const std::int64_t width = sgpool::Pool::instance().size() + 1;
  return {rows, (rows + width - 1) / width};
}

}  // namespace summagen::util
