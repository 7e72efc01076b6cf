#pragma once
//
// Live-heap gauge for perfbench. The perfbench binary replaces the global
// allocation functions (heap_gauge.cpp) so every allocation the simulator
// library makes can be metered without touching its sources. Sizes are the
// allocator's usable block sizes, so the figure includes malloc rounding.
//
// Metering is off unless a pass asks for it: a shared atomic counter on
// every allocation doubled LFT planning time on two threads, so timed
// passes never meter and the heap figure comes from a pass of its own.
//
#include <cstdint>

namespace perfbench::heap {

/// Start metering: live bytes count from zero at this call.
void start();
/// Stop metering and return the high-water mark of live bytes since start().
/// Blocks allocated before start() and freed inside the interval lower the
/// count, so the figure is the interval's own growth, never an overcount.
std::int64_t stop();

}  // namespace perfbench::heap
