// Cell-level constants for the ATM-like transport the paper assumes.
//
// Video bytes are carried in fixed-size cells with 48-byte payloads; the
// paper's simulations spread a frame's (or slice's) cells uniformly over
// the frame interval rather than delivering them as a burst ("in no case do
// all the cells of a frame arrive together").
#pragma once

#include <cstddef>

namespace vbr::net {

/// ATM cell payload bytes.
inline constexpr double kCellPayloadBytes = 48.0;

/// Number of cells needed for a byte count (ceiling).
std::size_t bytes_to_cells(double bytes);

}  // namespace vbr::net
