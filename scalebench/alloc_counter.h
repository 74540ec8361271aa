// Process-wide allocation counts from the benchmark's own replacement of the
// global operator new/delete (alloc_counter.cc). Every allocation the
// scalecheck library makes inside this binary is counted, from any thread.

#ifndef SCALEBENCH_ALLOC_COUNTER_H_
#define SCALEBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace scalebench {

struct AllocTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
};

// Allocations (and requested bytes) since process start.
AllocTotals AllocSnapshot();

}  // namespace scalebench

#endif  // SCALEBENCH_ALLOC_COUNTER_H_
