// Counting allocator of the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family for the
// whole process. Counting is off by default: an allocation then costs one
// relaxed atomic load more than the C library's malloc. The traced pass
// switches it on around the calls it attributes, so the counts cover every
// allocation the simulator makes on any thread in that window.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Totals {
  std::uint64_t count = 0;  ///< calls to any operator new
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

/// Zero the counters and start counting.
void start();

/// Stop counting and return what was counted since start().
Totals stop();

}  // namespace perfbench::alloc
