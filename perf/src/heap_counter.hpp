// Live-heap accounting for the benchmark process.
//
// heap_counter.cpp replaces the global operator new/delete family: every
// allocation adds its usable size (malloc_usable_size) to a process-wide
// live count and raises the peak, every free subtracts the same size. Two
// relaxed atomics per call keep it cheap enough to stay on in timed runs.
// Memory taken with malloc() directly is not counted.
#pragma once

#include <cstddef>

namespace perf::heap {

/// Bytes currently allocated through operator new.
std::size_t live_bytes();

/// Highest live_bytes() since the last reset_peak().
std::size_t peak_bytes();

/// Restarts peak tracking from the current live count.
void reset_peak();

}  // namespace perf::heap
