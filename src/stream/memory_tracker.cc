#include "stream/memory_tracker.h"

namespace geostreams {

void MemoryTracker::Update(const std::string& owner, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t& cur = current_[owner];
  total_ = total_ - cur + bytes;
  cur = bytes;
  uint64_t& ohw = owner_high_water_[owner];
  if (bytes > ohw) ohw = bytes;
  if (total_ > high_water_) high_water_ = total_;
}

void MemoryTracker::Remove(const std::string& owner) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = current_.find(owner);
  if (it == current_.end()) return;
  total_ -= it->second;
  current_.erase(it);
  owner_high_water_.erase(owner);
}

uint64_t MemoryTracker::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

uint64_t MemoryTracker::HighWaterBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

uint64_t MemoryTracker::OwnerHighWater(const std::string& owner) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = owner_high_water_.find(owner);
  return it == owner_high_water_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t> MemoryTracker::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

void MemoryTracker::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  current_.clear();
  owner_high_water_.clear();
  total_ = 0;
  high_water_ = 0;
}

}  // namespace geostreams
