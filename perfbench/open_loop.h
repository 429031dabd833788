// The open-loop load generator of the paced workload: arrivals are issued
// on a fixed schedule whether or not the checker kept up, and each one is
// timed from when it was *due*, so a stall is charged to every arrival that
// queued behind it (no coordinated omission). The generator sleeps until
// the next due time instead of spinning, leaving the cores to the checker's
// pipeline threads.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< due time -> return of the feed call
  std::vector<double> late_ms;     ///< due time -> issue of the feed call
  int64_t start_ns = 0;            ///< schedule origin (arrival 0's offset)
  int64_t end_ns = 0;              ///< return of the last feed call
};

/// Issues arrival i at `start + due_offset_ns[i]` (offsets non-decreasing)
/// by calling `feed(i)` on this thread.
template <typename Feed>
OpenLoopResult RunOpenLoop(const std::vector<int64_t>& due_offset_ns,
                           Feed&& feed) {
  OpenLoopResult r;
  r.latency_ms.resize(due_offset_ns.size());
  r.late_ms.resize(due_offset_ns.size());
  r.start_ns = NowNs();
  for (size_t i = 0; i < due_offset_ns.size(); ++i) {
    const int64_t due = r.start_ns + due_offset_ns[i];
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    r.late_ms[i] = static_cast<double>(now - due) / 1e6;
    feed(i);
    r.end_ns = NowNs();
    r.latency_ms[i] = static_cast<double>(r.end_ns - due) / 1e6;
  }
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
