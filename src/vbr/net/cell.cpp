#include "vbr/net/cell.hpp"

#include <cmath>

#include "vbr/common/error.hpp"

namespace vbr::net {

std::size_t bytes_to_cells(double bytes) {
  VBR_ENSURE(bytes >= 0.0, "byte count must be non-negative");
  return static_cast<std::size_t>(std::ceil(bytes / kCellPayloadBytes));
}

}  // namespace vbr::net
