// Tracks intermediate-state memory across the operators of a plan.

#ifndef GEOSTREAMS_STREAM_MEMORY_TRACKER_H_
#define GEOSTREAMS_STREAM_MEMORY_TRACKER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace geostreams {

/// Aggregates the buffered-bytes reports of all operators in one
/// running plan. Thread-safe: a threaded pipeline updates it from
/// several stages.
class MemoryTracker {
 public:
  /// Replaces the current figure for `owner` and updates totals.
  void Update(const std::string& owner, uint64_t bytes);

  /// Forgets `owner` (an operator being destroyed): its bytes leave
  /// the total, so torn-down plans do not pin stale figures.
  void Remove(const std::string& owner);

  /// Current total across owners.
  uint64_t TotalBytes() const;
  /// Largest total ever observed.
  uint64_t HighWaterBytes() const;
  /// High-water for a single owner (0 when unknown).
  uint64_t OwnerHighWater(const std::string& owner) const;
  /// Consistent copy of every owner's current figure (one lock
  /// acquisition, so the per-owner numbers are mutually coherent even
  /// while worker threads keep reporting).
  std::map<std::string, uint64_t> Snapshot() const;

  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, uint64_t> current_;
  std::map<std::string, uint64_t> owner_high_water_;
  uint64_t total_ = 0;
  uint64_t high_water_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STREAM_MEMORY_TRACKER_H_
