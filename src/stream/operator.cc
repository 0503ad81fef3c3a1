#include "stream/operator.h"

#include <atomic>

namespace geostreams {

void Operator::BindMemoryTracker(MemoryTracker* tracker) {
  static std::atomic<uint64_t> next_key{1};
  const uint64_t key = next_key.fetch_add(1, std::memory_order_relaxed);
  tracker_ = tracker;
  tracker_key_ = name_ + "#" + std::to_string(key);
}

uint64_t CollectingSink::TotalPoints() const {
  uint64_t n = 0;
  for (const StreamEvent& e : events_) {
    if (e.kind == EventKind::kPointBatch && e.batch) n += e.batch->size();
  }
  return n;
}

uint64_t CollectingSink::NumFrames() const {
  uint64_t n = 0;
  for (const StreamEvent& e : events_) {
    if (e.kind == EventKind::kFrameBegin) ++n;
  }
  return n;
}

}  // namespace geostreams
