// Pieces of the end-to-end benchmark that its self-test also uses:
// the frame verifier (digests of frames computed in-process, without
// the network, for comparison against what arrives over TCP), the
// pre-generated scan pool replayed under fresh frame ids, the
// in-memory span log, and a reader for the server's Prometheus text
// exposition.

#ifndef GEOSTREAMS_E2EBENCH_HARNESS_H_
#define GEOSTREAMS_E2EBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/stream_event.h"
#include "raster/raster.h"
#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"

namespace geostreams {
namespace e2ebench {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Frame verification.

/// Content digest of one delivered frame plus the number of samples
/// left at the raster's 0.0 fill value, which tells a frame missing
/// points (shed batches, torn store reads) from one with wrong values.
struct FrameDigest {
  uint64_t hash = 0;
  uint32_t width = 0;
  uint32_t height = 0;
  uint16_t bands = 0;
  uint64_t zeros = 0;
};

inline FrameDigest DigestSamples(uint32_t width, uint32_t height,
                                 uint16_t bands, const double* data,
                                 size_t n) {
  FrameDigest d;
  d.width = width;
  d.height = height;
  d.bands = bands;
  uint64_t h = 0xcbf29ce484222325ull ^ (uint64_t{width} << 32 | height) ^
               (uint64_t{bands} << 48);
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &data[i], sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ull;
    h ^= h >> 29;
    d.zeros += data[i] == 0.0 ? 1 : 0;
  }
  d.hash = h;
  return d;
}

inline FrameDigest DigestRaster(const Raster& raster) {
  return DigestSamples(static_cast<uint32_t>(raster.width()),
                       static_cast<uint32_t>(raster.height()),
                       static_cast<uint16_t>(raster.bands()),
                       raster.data().data(), raster.data().size());
}

enum class Verdict { kOk, kShort, kWrong };

inline Verdict Classify(const FrameDigest& got, const FrameDigest& want) {
  const bool same_shape = got.width == want.width &&
                          got.height == want.height &&
                          got.bands == want.bands;
  if (same_shape && got.hash == want.hash) return Verdict::kOk;
  if (same_shape && got.zeros > want.zeros) return Verdict::kShort;
  return Verdict::kWrong;
}

// ---------------------------------------------------------------------
// Scan pool.

/// One pre-generated scan of every band, row by row. Batches are
/// owned mutably so a replay can re-stamp them in place: ProducerClient
/// encodes an event during Publish and keeps no reference to it.
struct PoolScan {
  std::vector<FrameInfo> frames;  // per band
  std::vector<std::vector<std::shared_ptr<PointBatch>>> rows;  // [band][row]
  size_t num_rows() const { return rows.empty() ? 0 : rows[0].size(); }
};

/// Collects one band's generator output for the pool.
class PoolBandSink : public EventSink {
 public:
  PoolBandSink(std::vector<PoolScan>* pool, size_t band)
      : pool_(pool), band_(band) {}
  Status Consume(const StreamEvent& event) override {
    if (event.kind == EventKind::kFrameBegin) {
      PoolScan& scan = (*pool_)[static_cast<size_t>(event.frame.frame_id)];
      scan.frames[band_] = event.frame;
    } else if (event.kind == EventKind::kPointBatch) {
      PoolScan& scan = (*pool_)[static_cast<size_t>(event.batch->frame_id)];
      scan.rows[band_].push_back(std::make_shared<PointBatch>(*event.batch));
    }
    return Status::OK();
  }

 private:
  std::vector<PoolScan>* pool_;
  size_t band_;
};

/// Runs the instrument simulator for scans [0, count) and keeps every
/// event. The only place StreamGenerator runs; never on a timed path.
inline Result<std::vector<PoolScan>> GeneratePool(StreamGenerator* gen,
                                                  int64_t count) {
  const size_t bands = gen->config().bands.size();
  std::vector<PoolScan> pool(static_cast<size_t>(count));
  for (PoolScan& scan : pool) {
    scan.frames.resize(bands);
    scan.rows.resize(bands);
  }
  std::vector<std::unique_ptr<PoolBandSink>> sinks;
  std::vector<EventSink*> raw;
  for (size_t b = 0; b < bands; ++b) {
    sinks.push_back(std::make_unique<PoolBandSink>(&pool, b));
    raw.push_back(sinks.back().get());
  }
  GEOSTREAMS_RETURN_IF_ERROR(gen->GenerateScans(0, count, raw));
  return pool;
}

/// Sets the frame id of a pool scan's events for replay as `frame_id`
/// (scan-sector timestamps: every point carries the frame id).
inline void Restamp(PoolScan* scan, int64_t frame_id) {
  for (FrameInfo& info : scan->frames) info.frame_id = frame_id;
  for (auto& band_rows : scan->rows) {
    for (auto& batch : band_rows) {
      batch->frame_id = frame_id;
      std::fill(batch->timestamps.begin(), batch->timestamps.end(), frame_id);
    }
  }
}

/// Per-row publish order of one scan: FrameBegin of every band with
/// row 0, rows interleaved across bands, FrameEnd of every band right
/// after the last row, as a row-by-row imager reads out.
template <typename PublishFn>
Status PublishRow(PoolScan* scan, size_t row, PublishFn&& publish) {
  const size_t bands = scan->frames.size();
  if (row == 0) {
    for (size_t b = 0; b < bands; ++b) {
      GEOSTREAMS_RETURN_IF_ERROR(
          publish(b, StreamEvent::FrameBegin(scan->frames[b])));
    }
  }
  for (size_t b = 0; b < bands; ++b) {
    GEOSTREAMS_RETURN_IF_ERROR(
        publish(b, StreamEvent::Batch(scan->rows[b][row])));
  }
  if (row + 1 == scan->num_rows()) {
    for (size_t b = 0; b < bands; ++b) {
      GEOSTREAMS_RETURN_IF_ERROR(
          publish(b, StreamEvent::FrameEnd(scan->frames[b])));
    }
  }
  return Status::OK();
}

/// Digests of every frame each query produces over the pool, from a
/// network-free synchronous DsmsServer. Frame id `f` of a replay
/// carries pool scan `f % pool size`, so one pass covers every id.
class ReferenceFrames {
 public:
  Status Build(const std::vector<GeoStreamDescriptor>& streams,
               const std::vector<std::string>& queries,
               std::vector<PoolScan>* pool) {
    DsmsServer server;
    for (const GeoStreamDescriptor& desc : streams) {
      GEOSTREAMS_RETURN_IF_ERROR(server.RegisterStream(desc));
    }
    pool_size_ = pool->size();
    for (const std::string& text : queries) {
      if (digests_.count(text) != 0) continue;
      auto& slots = digests_[text];
      slots.assign(pool_size_, FrameDigest{});
      auto id = server.RegisterQuery(
          text, [&slots](int64_t frame_id, const Raster& raster,
                         const std::vector<uint8_t>&) {
            slots[static_cast<size_t>(frame_id)] = DigestRaster(raster);
          });
      GEOSTREAMS_RETURN_IF_ERROR(id.status());
    }
    std::vector<EventSink*> sinks;
    for (const GeoStreamDescriptor& desc : streams) {
      sinks.push_back(server.ingest(desc.name()));
    }
    for (size_t p = 0; p < pool->size(); ++p) {
      PoolScan* scan = &(*pool)[p];
      Restamp(scan, static_cast<int64_t>(p));
      for (size_t row = 0; row < scan->num_rows(); ++row) {
        GEOSTREAMS_RETURN_IF_ERROR(PublishRow(
            scan, row, [&sinks](size_t band, const StreamEvent& event) {
              return sinks[band]->Consume(event);
            }));
      }
    }
    for (auto& [text, slots] : digests_) {
      for (const FrameDigest& d : slots) {
        if (d.width == 0) {
          return Status::Internal("reference produced no frame for " + text);
        }
      }
    }
    return Status::OK();
  }

  /// Null for a query text the reference never ran.
  const FrameDigest* Lookup(const std::string& text, int64_t frame_id) const {
    auto it = digests_.find(text);
    if (it == digests_.end() || frame_id < 0) return nullptr;
    return &it->second[static_cast<size_t>(frame_id) % pool_size_];
  }

 private:
  size_t pool_size_ = 1;
  std::map<std::string, std::vector<FrameDigest>> digests_;
};

// ---------------------------------------------------------------------
// Spans.

/// One timed call into a layer. `scan` groups the spans of one scan
/// (-1 = not tied to a scan); `parent` is the id of the span that
/// caused it (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t scan = -1;
  int64_t start_ns = 0;  // since the log's epoch
  int64_t end_ns = 0;
};

/// Spans kept in memory for the whole run and written out at the end.
/// Disabled logs record nothing (the untraced run).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  uint64_t Add(const char* name, int64_t scan, uint64_t parent,
               Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.scan = scan;
    s.start_ns = Ns(start);
    s.end_ns = Ns(end);
    spans_.push_back(s);
    return s.id;
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const Clock::time_point epoch_;
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Length of [start, end) not covered by the union of `children`
/// (each clipped to the interval): the parent span's self time.
inline int64_t SelfTimeNs(int64_t start, int64_t end,
                          std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (end - start) - covered;
}

// ---------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

// ---------------------------------------------------------------------
// Prometheus text exposition.

/// Every sample line of one scrape, keyed by the full series text
/// (`name{labels}`).
using Scrape = std::map<std::string, double>;

inline Scrape ParseExposition(const std::vector<std::string>& lines) {
  Scrape out;
  for (const std::string& line : lines) {
    if (line.empty() || line[0] == '#') continue;
    const size_t close = line.rfind('}');
    const size_t space = line.find(' ', close == std::string::npos ? 0 : close);
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

/// after - before, series by series (counters and histogram parts).
inline Scrape Delta(const Scrape& after, const Scrape& before) {
  Scrape out;
  for (const auto& [key, v] : after) {
    auto it = before.find(key);
    out[key] = v - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

/// True when `key` belongs to metric `name` and carries every
/// `k="v"` pair of `labels`.
inline bool SeriesMatches(const std::string& key, const std::string& name,
                          const std::vector<std::string>& labels) {
  if (key.compare(0, name.size(), name) != 0) return false;
  if (key.size() > name.size() && key[name.size()] != '{') return false;
  for (const std::string& label : labels) {
    if (key.find(label) == std::string::npos) return false;
  }
  return true;
}

/// Sum of every series of `name` carrying `labels`.
inline double SumSeries(const Scrape& scrape, const std::string& name,
                        const std::vector<std::string>& labels = {}) {
  double total = 0.0;
  for (const auto& [key, v] : scrape) {
    if (SeriesMatches(key, name, labels)) total += v;
  }
  return total;
}

/// Quantile of histogram `name` over every series carrying `labels`
/// (buckets summed across the remaining labels), interpolated linearly
/// inside the owning bucket as Prometheus' histogram_quantile does.
/// 0 when the histogram has no samples.
inline double HistogramQuantile(const Scrape& scrape, const std::string& name,
                                const std::vector<std::string>& labels,
                                double q) {
  std::map<double, double> cumulative;  // le -> count
  const std::string bucket = name + "_bucket";
  for (const auto& [key, v] : scrape) {
    if (!SeriesMatches(key, bucket, labels)) continue;
    const size_t le = key.find("le=\"");
    if (le == std::string::npos) continue;
    const std::string bound = key.substr(le + 4, key.find('"', le + 4) - le - 4);
    const double b = bound == "+Inf" ? INFINITY : std::strtod(bound.c_str(), nullptr);
    cumulative[b] += v;
  }
  if (cumulative.empty()) return 0.0;
  const double total = cumulative.rbegin()->second;
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double prev_bound = 0.0;
  double prev_count = 0.0;
  for (const auto& [b, count] : cumulative) {
    if (count >= rank) {
      if (std::isinf(b)) return prev_bound;
      const double in_bucket = count - prev_count;
      if (in_bucket <= 0.0) return b;
      return prev_bound + (b - prev_bound) * (rank - prev_count) / in_bucket;
    }
    prev_bound = b;
    prev_count = count;
  }
  return prev_bound;
}

}  // namespace e2ebench
}  // namespace geostreams

#endif  // GEOSTREAMS_E2EBENCH_HARNESS_H_
