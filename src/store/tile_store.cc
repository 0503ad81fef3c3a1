#include "store/tile_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "common/logging.h"
#include "common/string_util.h"
#include "geo/crs_registry.h"
#include "obs/event_log.h"
#include "raster/checksum.h"
#include "storage/governor.h"

namespace geostreams {

namespace fs = std::filesystem;

namespace {

constexpr char kStoreMagic[4] = {'G', 'S', 'T', '1'};
constexpr size_t kStoreHeaderSize = 16;
constexpr uint16_t kStoreVersion = 1;
constexpr uint32_t kMaxStorePayload = 256u << 20;
constexpr char kNameFile[] = "name";
constexpr char kPagePrefix[] = "page-";
constexpr char kPageSuffix[] = ".gst";

enum class RecordType : uint8_t {
  kFrameMeta = 1,
  kTilePage = 2,
  kFrameCommit = 3,
};

// --- little-endian encode/decode (same byte discipline as GSF1) -----------

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xff));
  out.push_back(static_cast<uint8_t>((v >> 8) & 0xff));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::vector<uint8_t>& out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::vector<uint8_t>& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

int64_t GetI64(const uint8_t* p) { return static_cast<int64_t>(GetU64(p)); }

double GetF64(const uint8_t* p) {
  const uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Sequential payload reader with bounds checking.
struct PayloadReader {
  const uint8_t* p;
  size_t remaining;
  bool ok = true;

  const uint8_t* Take(size_t n) {
    if (!ok || remaining < n) {
      ok = false;
      return nullptr;
    }
    const uint8_t* out = p;
    p += n;
    remaining -= n;
    return out;
  }
  uint16_t U16() { const uint8_t* q = Take(2); return q ? GetU16(q) : 0; }
  uint32_t U32() { const uint8_t* q = Take(4); return q ? GetU32(q) : 0; }
  int64_t I64() { const uint8_t* q = Take(8); return q ? GetI64(q) : 0; }
  double F64() { const uint8_t* q = Take(8); return q ? GetF64(q) : 0.0; }
};

void AppendHeader(std::vector<uint8_t>& out, RecordType type, uint8_t level,
                  const std::vector<uint8_t>& payload) {
  for (char c : kStoreMagic) out.push_back(static_cast<uint8_t>(c));
  out.push_back(static_cast<uint8_t>(type));
  out.push_back(level);
  PutU16(out, kStoreVersion);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

/// Validates one record at `data` (avail bytes). On success fills
/// type/level/payload span and returns the record's total length.
Result<size_t> ValidateRecord(const uint8_t* data, size_t avail,
                              RecordType* type, uint8_t* level,
                              const uint8_t** payload, size_t* payload_len) {
  if (avail < kStoreHeaderSize) {
    return Status::InvalidArgument("store record truncated in header");
  }
  if (std::memcmp(data, kStoreMagic, 4) != 0) {
    return Status::InvalidArgument("bad store record magic");
  }
  const uint8_t raw_type = data[4];
  if (raw_type < 1 || raw_type > 3) {
    return Status::InvalidArgument("unknown store record type");
  }
  if (GetU16(data + 6) != kStoreVersion) {
    return Status::InvalidArgument("unknown store record version");
  }
  const uint32_t len = GetU32(data + 8);
  if (len > kMaxStorePayload) {
    return Status::InvalidArgument("store payload length insane");
  }
  if (avail < kStoreHeaderSize + len) {
    return Status::InvalidArgument("store record truncated in payload");
  }
  const uint32_t crc = GetU32(data + 12);
  if (Crc32(data + kStoreHeaderSize, len) != crc) {
    return Status::IoError("store record payload CRC mismatch");
  }
  *type = static_cast<RecordType>(raw_type);
  *level = data[5];
  *payload = data + kStoreHeaderSize;
  *payload_len = len;
  return kStoreHeaderSize + len;
}

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(StringPrintf("open %s: %s", path.c_str(),
                                        std::strerror(errno)));
  }
  out->clear();
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::IoError(StringPrintf("read %s: %s", path.c_str(),
                                          std::strerror(err)));
    }
    if (n == 0) break;
    out->insert(out->end(), buf, buf + n);
  }
  ::close(fd);
  return Status::OK();
}

/// Same sanitization discipline as the journal: keep the common safe
/// set, mangle the rest with an FNV-1a suffix so distinct sources
/// stay distinct.
std::string SourceDirName(const std::string& source) {
  std::string safe;
  bool mangled = false;
  for (char c : source) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_';
    safe.push_back(keep ? c : '_');
    mangled = mangled || !keep;
  }
  if (safe.empty() || mangled) {
    uint64_t h = 1469598103934665603ull;
    for (char c : source) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    safe += StringPrintf("-%08llx",
                         static_cast<unsigned long long>(h & 0xffffffffull));
  }
  return safe;
}

/// One level of the in-memory pyramid under construction.
struct LevelImage {
  Raster raster;
  std::vector<uint8_t> filled;
};

/// Factor-2 mask-aware box reduction: an output cell averages the
/// FILLED cells of its 2x2 source block and is filled iff at least
/// one contributor was — nodata never fabricates values (the
/// AssembledFrame contract, raster/frame_assembler.h).
LevelImage ReduceMasked(const LevelImage& src) {
  const int64_t sw = src.raster.width();
  const int64_t sh = src.raster.height();
  const int bands = src.raster.bands();
  const int64_t w = (sw + 1) / 2;
  const int64_t h = (sh + 1) / 2;
  LevelImage out;
  out.raster = Raster(w, h, bands);
  out.raster.set_lattice(src.raster.lattice().Reduced(2));
  out.filled.assign(static_cast<size_t>(w * h), 0);
  for (int64_t r = 0; r < h; ++r) {
    for (int64_t c = 0; c < w; ++c) {
      int count = 0;
      for (int64_t dr = 0; dr < 2; ++dr) {
        for (int64_t dc = 0; dc < 2; ++dc) {
          const int64_t sc = 2 * c + dc;
          const int64_t sr = 2 * r + dr;
          if (sc >= sw || sr >= sh) continue;
          if (!src.filled[static_cast<size_t>(sr * sw + sc)]) continue;
          ++count;
          for (int b = 0; b < bands; ++b) {
            out.raster.Set(c, r, b,
                           out.raster.At(c, r, b) + src.raster.At(sc, sr, b));
          }
        }
      }
      if (count > 0) {
        out.filled[static_cast<size_t>(r * w + c)] = 1;
        for (int b = 0; b < bands; ++b) {
          out.raster.Set(c, r, b, out.raster.At(c, r, b) / count);
        }
      }
    }
  }
  return out;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Index structures

struct TileStore::TileRef {
  uint32_t segment = 0;   // index into SourceStore::segments
  uint64_t offset = 0;    // record start within the segment
  uint32_t length = 0;    // header + payload
  uint32_t tile_col = 0;
  uint32_t tile_row = 0;
  uint16_t tile_w = 0;
  uint16_t tile_h = 0;
};

struct TileStore::StoredLevel {
  GridLattice lattice;
  std::vector<TileRef> tiles;
};

struct TileStore::StoredFrame {
  int64_t frame_id = 0;
  int band_count = 1;
  int64_t expected_points = 0;
  /// The frame's whole record run (meta + pages + commit) is
  /// contiguous in one segment; retention prunes and GC rewrites
  /// whole runs.
  uint32_t segment = 0;
  uint64_t run_offset = 0;
  uint64_t run_bytes = 0;
  uint64_t stored_ms = 0;  // NowMs() at index time (age retention)
  std::vector<StoredLevel> levels;
};

struct TileStore::SourceStore {
  /// One page segment. Slots are tombstoned (`dead`), never erased,
  /// so TileRef::segment indices stay stable across GC.
  struct SegmentState {
    std::string path;
    uint64_t bytes = 0;       // good bytes on disk (0 once dead)
    uint64_t live_bytes = 0;  // bytes of runs still in the index
    uint64_t live_frames = 0;
    bool dead = false;        // file unlinked; slot kept for index stability
  };

  std::string name;
  std::string dir;

  mutable std::mutex mu;
  std::vector<SegmentState> segments;  // page files, oldest first
  std::unique_ptr<WritableFile> active;
  uint32_t active_index = 0;
  uint64_t active_bytes = 0;
  uint64_t next_page_no = 0;
  /// Recovery's final size of the last segment; the first write of
  /// this incarnation resumes there instead of opening a new page.
  uint64_t resume_bytes = 0;
  bool resumed = false;
  /// A write error abandoned the active segment; the next frame
  /// starts a fresh page so committed runs stay contiguous.
  bool tainted = false;
  std::map<int64_t, std::shared_ptr<const StoredFrame>> frames;
  int64_t watermark = std::numeric_limits<int64_t>::min();
  /// Highest frame id retention ever pruned (catch-up truncation
  /// reporting).
  int64_t pruned_upto = std::numeric_limits<int64_t>::min();
  TileStoreStats stats;

  /// Scans in flight that snapshotted the index before now. Cached
  /// fds of tombstoned segments are reaped only at zero: a snapshot
  /// taken after a prune can no longer reference a dead segment, so
  /// zero in-flight scans means nothing can still read those fds.
  std::atomic<uint64_t> active_scans{0};
  /// Tombstoned segment indices whose cached fds await reaping.
  std::vector<uint32_t> dead_fd_reap;

  std::mutex read_mu;
  std::map<uint32_t, int> read_fds;  // segment index -> O_RDONLY fd

  ~SourceStore() {
    for (auto& [idx, fd] : read_fds) ::close(fd);
  }
};

// ---------------------------------------------------------------------------
// Open / recovery

TileStore::TileStore(TileStoreOptions options)
    : options_(std::move(options)) {
  if (options_.tile_size < 1) options_.tile_size = 64;
  if (options_.max_levels < 0) options_.max_levels = 0;
  if (options_.metrics != nullptr) {
    MetricsRegistry& reg = *options_.metrics;
    m_frames_written_ =
        reg.GetCounter("geostreams_store_frames_written_total",
                       "Frames committed to the tile store");
    m_tiles_written_ = reg.GetCounter("geostreams_store_tiles_written_total",
                                      "Tile pages written (all levels)");
    m_bytes_written_ = reg.GetCounter("geostreams_store_bytes_written_total",
                                      "Bytes appended to tile page segments");
    m_write_errors_ = reg.GetCounter(
        "geostreams_store_write_errors_total",
        "Frame writes abandoned on I/O errors (frame not committed)");
    m_frames_read_ = reg.GetCounter("geostreams_store_frames_read_total",
                                    "Frames replayed from the store");
    m_tiles_read_ = reg.GetCounter("geostreams_store_tiles_read_total",
                                   "Tile pages read and CRC-verified");
    m_tile_read_errors_ = reg.GetCounter(
        "geostreams_store_tile_read_errors_total",
        "Tile pages skipped on read (CRC mismatch or I/O error)");
    m_frames_recovered_ =
        reg.GetCounter("geostreams_store_frames_recovered_total",
                       "Committed frames re-indexed by startup recovery");
    m_torn_tails_ = reg.GetCounter(
        "geostreams_store_torn_tails_total",
        "Half-written page tails truncated by startup recovery");
    m_corrupt_regions_ = reg.GetCounter(
        "geostreams_store_corrupt_regions_total",
        "Mid-file corrupt regions skipped by recovery");
    m_frames_rejected_ = reg.GetCounter(
        "geostreams_store_frames_rejected_total",
        "Frames refused at PutFrame admission while storage is degraded");
    m_sync_errors_ = reg.GetCounter(
        "geostreams_store_sync_errors_total",
        "Segment Sync/Close failures (previously silently discarded)");
    m_frames_pruned_ = reg.GetCounter(
        "geostreams_store_frames_pruned_total",
        "Frames evicted from the index by retention budgets");
    m_segments_deleted_ = reg.GetCounter(
        "geostreams_store_segments_deleted_total",
        "Fully-dead page segments unlinked by GC");
    m_segments_rewritten_ = reg.GetCounter(
        "geostreams_store_segments_rewritten_total",
        "Mostly-dead page segments compacted by GC");
    m_bytes_reclaimed_ = reg.GetCounter(
        "geostreams_store_bytes_reclaimed_total",
        "Net on-disk bytes freed by retention and GC");
    m_put_latency_us_ = reg.GetHistogram(
        "geostreams_store_put_latency_us",
        "Tile + pyramid encode and append latency per committed frame");
    m_scan_frame_latency_us_ = reg.GetHistogram(
        "geostreams_store_scan_frame_latency_us",
        "Latency of replaying one stored frame into an event sink");
  }
}

TileStore::~TileStore() {
  {
    std::lock_guard<std::mutex> lock(gc_wake_mu_);
    stopping_ = true;
  }
  gc_cv_.notify_all();
  if (gc_thread_.joinable()) gc_thread_.join();
  Status st = SyncAll();  // SyncAll counts its own failures
  if (!st.ok()) {
    GEOSTREAMS_LOG(kWarning) << "tile store final sync: " << st.ToString();
  }
}

Result<std::unique_ptr<TileStore>> TileStore::Open(TileStoreOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("tile store directory must be non-empty");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("create " + options.dir + ": " + ec.message());
  }
  std::unique_ptr<TileStore> store(new TileStore(std::move(options)));
  GEOSTREAMS_RETURN_IF_ERROR(store->RecoverAll());
  if (store->options_.gc_interval_ms > 0) {
    TileStore* raw = store.get();
    store->gc_thread_ = std::thread([raw] { raw->GcThreadMain(); });
  }
  return store;
}

uint64_t TileStore::NowMs() const {
  if (options_.now_ms) return options_.now_ms();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status TileStore::RecoverAll() {
  std::error_code ec;
  std::vector<std::string> source_dirs;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (entry.is_directory()) {
      source_dirs.push_back(entry.path().filename().string());
    }
  }
  if (ec) {
    return Status::IoError("list " + options_.dir + ": " + ec.message());
  }
  std::sort(source_dirs.begin(), source_dirs.end());
  for (const std::string& dir_name : source_dirs) {
    GEOSTREAMS_RETURN_IF_ERROR(RecoverSource(dir_name));
  }
  if (m_frames_recovered_) {
    m_frames_recovered_->Increment(recovery_.frames_recovered);
  }
  if (m_torn_tails_) m_torn_tails_->Increment(recovery_.torn_tails);
  if (m_corrupt_regions_) {
    m_corrupt_regions_->Increment(recovery_.corrupt_regions);
  }
  if (options_.governor != nullptr) {
    uint64_t on_disk = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, src] : sources_) {
      std::lock_guard<std::mutex> src_lock(src->mu);
      for (const auto& seg : src->segments) on_disk += seg.bytes;
    }
    options_.governor->SetUsage("store", on_disk);
  }
  return Status::OK();
}

Status TileStore::RecoverSource(const std::string& source_dir_name) {
  const std::string dir = options_.dir + "/" + source_dir_name;
  std::string source = source_dir_name;
  {
    std::vector<uint8_t> bytes;
    if (ReadWholeFile(dir + "/" + kNameFile, &bytes).ok() && !bytes.empty()) {
      source.assign(bytes.begin(), bytes.end());
      source = std::string(StripWhitespace(source));
    }
  }

  auto src = std::make_unique<SourceStore>();
  src->name = source;
  src->dir = dir;

  std::error_code ec;
  std::vector<std::string> pages;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string fname = entry.path().filename().string();
    if (fname.rfind(kPagePrefix, 0) == 0 &&
        fname.size() > std::strlen(kPageSuffix) &&
        fname.compare(fname.size() - std::strlen(kPageSuffix),
                      std::strlen(kPageSuffix), kPageSuffix) == 0) {
      pages.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::IoError("list " + dir + ": " + ec.message());
  }
  std::sort(pages.begin(), pages.end());
  for (const std::string& page : pages) {
    const std::string fname = fs::path(page).filename().string();
    const uint64_t no = std::strtoull(
        fname.c_str() + std::strlen(kPagePrefix), nullptr, 10);
    if (no + 1 > src->next_page_no) src->next_page_no = no + 1;
  }

  // Pending (uncommitted) frame state while scanning one segment.
  std::shared_ptr<StoredFrame> pending;
  std::vector<uint32_t> pending_counts;  // tiles seen per level
  uint64_t pending_run_start = 0;        // offset of pending's kFrameMeta
  auto drop_pending = [&] {
    if (pending != nullptr) ++recovery_.incomplete_frames;
    pending.reset();
    pending_counts.clear();
  };
  const uint64_t recovered_now_ms = NowMs();

  for (size_t si = 0; si < pages.size(); ++si) {
    const bool last_segment = (si + 1 == pages.size());
    std::vector<uint8_t> data;
    GEOSTREAMS_RETURN_IF_ERROR(ReadWholeFile(pages[si], &data));
    src->segments.push_back(SourceStore::SegmentState{});
    src->segments.back().path = pages[si];
    const uint32_t seg_index = static_cast<uint32_t>(src->segments.size() - 1);
    size_t off = 0;
    uint64_t file_good_end = data.size();
    bool truncated = false;
    drop_pending();  // a frame never spans segments

    while (off < data.size()) {
      RecordType type;
      uint8_t level;
      const uint8_t* payload;
      size_t payload_len;
      Result<size_t> len = ValidateRecord(data.data() + off, data.size() - off,
                                          &type, &level, &payload,
                                          &payload_len);
      if (!len.ok()) {
        // Damage. Resync: the next offset where a record validates.
        size_t resync = data.size();
        for (size_t probe = off + 1; probe + kStoreHeaderSize <= data.size();
             ++probe) {
          if (std::memcmp(data.data() + probe, kStoreMagic, 4) != 0) continue;
          RecordType t2;
          uint8_t l2;
          const uint8_t* p2;
          size_t pl2;
          if (ValidateRecord(data.data() + probe, data.size() - probe, &t2,
                             &l2, &p2, &pl2)
                  .ok()) {
            resync = probe;
            break;
          }
        }
        drop_pending();
        if (resync == data.size() && last_segment) {
          // Torn tail: the write a crash interrupted. Truncate.
          ++recovery_.torn_tails;
          recovery_.torn_bytes += data.size() - off;
          file_good_end = off;
          truncated = true;
          break;
        }
        ++recovery_.corrupt_regions;
        GEOSTREAMS_LOG(kError)
            << "tile store source '" << source << "': corrupt region of "
            << (resync - off) << " bytes at offset " << off << " of "
            << pages[si] << " (" << len.status().message() << ")";
        off = resync;
        continue;
      }

      PayloadReader reader{payload, payload_len};
      switch (type) {
        case RecordType::kFrameMeta: {
          drop_pending();
          const int64_t frame_id = reader.I64();
          const uint16_t bands = reader.U16();
          const uint8_t level_count = static_cast<uint8_t>(reader.U16() & 0xff);
          const int64_t expected = reader.I64();
          const uint16_t crs_len = reader.U16();
          const uint8_t* crs_bytes = reader.Take(crs_len);
          const double ox = reader.F64();
          const double oy = reader.F64();
          const double dx = reader.F64();
          const double dy = reader.F64();
          const int64_t w = reader.I64();
          const int64_t h = reader.I64();
          if (!reader.ok || bands < 1 || level_count < 1) break;
          Result<CrsPtr> crs = ResolveCrs(
              std::string(reinterpret_cast<const char*>(crs_bytes), crs_len));
          if (!crs.ok()) {
            GEOSTREAMS_LOG(kWarning)
                << "tile store source '" << source
                << "': frame " << frame_id << " has unresolvable CRS; skipped";
            break;
          }
          pending = std::make_shared<StoredFrame>();
          pending->frame_id = frame_id;
          pending->band_count = bands;
          pending->expected_points = expected;
          pending->segment = seg_index;
          pending_run_start = off;
          pending->levels.resize(level_count);
          const GridLattice base(*crs, ox, oy, dx, dy, w, h);
          for (uint8_t l = 0; l < level_count; ++l) {
            pending->levels[l].lattice = l == 0 ? base : base.Reduced(1 << l);
          }
          pending_counts.assign(level_count, 0);
          break;
        }
        case RecordType::kTilePage: {
          if (pending == nullptr || level >= pending->levels.size()) break;
          const int64_t frame_id = reader.I64();
          const uint32_t tc = reader.U32();
          const uint32_t tr = reader.U32();
          const uint16_t tw = reader.U16();
          const uint16_t th = reader.U16();
          reader.U16();  // band count (validated against meta on read)
          reader.U16();  // pad
          if (!reader.ok || frame_id != pending->frame_id) break;
          TileRef ref;
          ref.segment = seg_index;
          ref.offset = off;
          ref.length = static_cast<uint32_t>(*len);
          ref.tile_col = tc;
          ref.tile_row = tr;
          ref.tile_w = tw;
          ref.tile_h = th;
          pending->levels[level].tiles.push_back(ref);
          ++pending_counts[level];
          break;
        }
        case RecordType::kFrameCommit: {
          if (pending == nullptr) break;
          const int64_t frame_id = reader.I64();
          const uint16_t level_count = reader.U16();
          bool counts_ok = reader.ok && frame_id == pending->frame_id &&
                           level_count == pending->levels.size();
          for (uint16_t l = 0; counts_ok && l < level_count; ++l) {
            counts_ok = reader.U32() == pending_counts[l] && reader.ok;
          }
          if (!counts_ok) {
            drop_pending();
            break;
          }
          if (src->frames.count(pending->frame_id) > 0) {
            // The duplicate's run bytes stay dead in this segment (a
            // crash mid-GC-rewrite leaves one of these; GC reclaims
            // the bytes once the segment's live fraction drops).
            ++recovery_.duplicate_frames;
          } else {
            uint64_t tiles = 0;
            for (const StoredLevel& lv : pending->levels) {
              tiles += lv.tiles.size();
            }
            pending->run_offset = pending_run_start;
            pending->run_bytes = off + *len - pending_run_start;
            pending->stored_ms = recovered_now_ms;
            src->segments[seg_index].live_bytes += pending->run_bytes;
            ++src->segments[seg_index].live_frames;
            recovery_.tile_pages_recovered += tiles;
            ++recovery_.frames_recovered;
            src->watermark = std::max(src->watermark, pending->frame_id);
            src->frames.emplace(pending->frame_id, std::move(pending));
          }
          pending.reset();
          pending_counts.clear();
          break;
        }
      }
      off += *len;
    }
    drop_pending();

    if (truncated) {
      std::error_code tec;
      fs::resize_file(pages[si], file_good_end, tec);
      if (tec) {
        return Status::IoError("truncate " + pages[si] + ": " + tec.message());
      }
      GEOSTREAMS_LOG(kWarning)
          << "tile store source '" << source << "': truncated torn tail at "
          << file_good_end << " of " << pages[si];
    }
    src->segments[seg_index].bytes = file_good_end;
    if (last_segment) src->resume_bytes = file_good_end;
  }

  std::lock_guard<std::mutex> lock(mu_);
  sources_.emplace(source, std::move(src));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Source lookup / segment management

TileStore::SourceStore* TileStore::FindSource(const std::string& source) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(source);
  return it == sources_.end() ? nullptr : it->second.get();
}

TileStore::SourceStore* TileStore::SourceFor(const std::string& source) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sources_.find(source);
  if (it != sources_.end()) return it->second.get();
  auto src = std::make_unique<SourceStore>();
  src->name = source;
  src->dir = options_.dir + "/" + SourceDirName(source);
  std::error_code ec;
  fs::create_directories(src->dir, ec);
  if (!ec) {
    const std::string name_path = src->dir + "/" + kNameFile;
    if (!fs::exists(name_path, ec)) {
      Result<std::unique_ptr<WritableFile>> f = OpenPosixWritable(name_path);
      if (f.ok()) {
        const std::string line = source + "\n";
        Status ignored = (*f)->Append(
            reinterpret_cast<const uint8_t*>(line.data()), line.size());
        ignored = (*f)->Close();
        (void)ignored;
      }
    }
  }
  SourceStore* out = src.get();
  sources_.emplace(source, std::move(src));
  return out;
}

Result<std::unique_ptr<WritableFile>> TileStore::OpenFile(
    const std::string& path) {
  if (options_.file_factory) return options_.file_factory(path);
  return OpenPosixWritable(path);
}

Status TileStore::EnsureOpenLocked(SourceStore* src) {
  if (src->active != nullptr && !src->tainted &&
      src->active_bytes < options_.segment_max_bytes) {
    return Status::OK();
  }
  if (src->active != nullptr) {
    // Sealing failures no longer vanish: a failed fsync here means
    // the sealed segment's tail may not survive power loss.
    Status sync_st = src->active->Sync();
    Status close_st = src->active->Close();
    if (!sync_st.ok() || !close_st.ok()) {
      ++src->stats.sync_errors;
      if (m_sync_errors_) m_sync_errors_->Increment();
      GEOSTREAMS_LOG(kWarning)
          << "tile store source '" << src->name << "': sealing segment: "
          << (!sync_st.ok() ? sync_st : close_st).ToString();
    }
    src->active.reset();
  }
  const bool resume = !src->tainted && !src->resumed &&
                      !src->segments.empty() &&
                      !src->segments.back().dead &&
                      src->resume_bytes < options_.segment_max_bytes;
  src->resumed = true;
  src->tainted = false;
  if (resume) {
    GEOSTREAMS_ASSIGN_OR_RETURN(src->active,
                                OpenFile(src->segments.back().path));
    src->active_index = static_cast<uint32_t>(src->segments.size() - 1);
    src->active_bytes = src->resume_bytes;
    return Status::OK();
  }
  const std::string path =
      src->dir + "/" + kPagePrefix +
      StringPrintf("%06llu",
                   static_cast<unsigned long long>(src->next_page_no++)) +
      kPageSuffix;
  GEOSTREAMS_ASSIGN_OR_RETURN(src->active, OpenFile(path));
  src->segments.push_back(SourceStore::SegmentState{});
  src->segments.back().path = path;
  src->active_index = static_cast<uint32_t>(src->segments.size() - 1);
  src->active_bytes = 0;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path

Status TileStore::PutFrame(const std::string& source, const FrameInfo& info,
                           const Raster& raster,
                           const std::vector<uint8_t>& filled) {
  const int64_t w = raster.width();
  const int64_t h = raster.height();
  if (w <= 0 || h <= 0) {
    return Status::InvalidArgument("cannot store an empty raster");
  }
  if (filled.size() != static_cast<size_t>(w * h)) {
    return Status::InvalidArgument("occupancy mask does not match raster");
  }
  const GridLattice& base =
      raster.lattice().width() == w && raster.lattice().height() == h
          ? raster.lattice()
          : info.lattice;
  if (base.crs() == nullptr) {
    return Status::InvalidArgument("stored frames need a lattice with a CRS");
  }

  SourceStore* src = SourceFor(source);
  std::lock_guard<std::mutex> lock(src->mu);
  if (src->frames.count(info.frame_id) > 0) {
    return Status::OK();  // producer replay after a crash: already durable
  }
  StorageGovernor* gov = options_.governor;
  if (gov != nullptr) {
    // Degraded-mode shed happens before any encode work; replayed
    // already-durable frames (above) still succeed while degraded.
    Status admit = gov->Admit("store");
    if (!admit.ok()) {
      ++src->stats.frames_rejected;
      if (m_frames_rejected_) m_frames_rejected_->Increment();
      return admit;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Build the pyramid in memory: level 0 is the frame itself, each
  // further level halves the resolution until one tile covers it.
  std::vector<LevelImage> levels;
  levels.push_back(LevelImage{raster, filled});
  levels.back().raster.set_lattice(base);
  const int tile = options_.tile_size;
  while (static_cast<int>(levels.size()) <= options_.max_levels &&
         (levels.back().raster.width() > tile ||
          levels.back().raster.height() > tile)) {
    levels.push_back(ReduceMasked(levels.back()));
  }

  auto frame = std::make_shared<StoredFrame>();
  frame->frame_id = info.frame_id;
  frame->band_count = raster.bands();
  frame->expected_points = info.expected_points;
  frame->levels.resize(levels.size());
  for (size_t l = 0; l < levels.size(); ++l) {
    frame->levels[l].lattice =
        l == 0 ? base : base.Reduced(1 << static_cast<int>(l));
  }

  // Encode the whole record run (meta, pages, commit) into one
  // buffer; a single append keeps the run contiguous and makes any
  // torn write an uncommitted (hence invisible) frame.
  std::vector<uint8_t> run;
  std::vector<uint8_t> payload;
  {
    payload.clear();
    PutI64(payload, info.frame_id);
    PutU16(payload, static_cast<uint16_t>(raster.bands()));
    PutU16(payload, static_cast<uint16_t>(levels.size() & 0xff));
    PutI64(payload, info.expected_points);
    const std::string& crs_name = base.crs()->name();
    PutU16(payload, static_cast<uint16_t>(crs_name.size()));
    payload.insert(payload.end(), crs_name.begin(), crs_name.end());
    PutF64(payload, base.origin_x());
    PutF64(payload, base.origin_y());
    PutF64(payload, base.dx());
    PutF64(payload, base.dy());
    PutI64(payload, base.width());
    PutI64(payload, base.height());
    AppendHeader(run, RecordType::kFrameMeta, 0, payload);
  }

  std::vector<uint32_t> level_counts(levels.size(), 0);
  uint64_t total_tiles = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    const LevelImage& img = levels[l];
    const int64_t lw = img.raster.width();
    const int64_t lh = img.raster.height();
    const int bands = img.raster.bands();
    const int64_t tiles_x = (lw + tile - 1) / tile;
    const int64_t tiles_y = (lh + tile - 1) / tile;
    for (int64_t tr = 0; tr < tiles_y; ++tr) {
      for (int64_t tc = 0; tc < tiles_x; ++tc) {
        const int64_t c0 = tc * tile;
        const int64_t r0 = tr * tile;
        const uint16_t tw = static_cast<uint16_t>(std::min<int64_t>(tile, lw - c0));
        const uint16_t th = static_cast<uint16_t>(std::min<int64_t>(tile, lh - r0));
        // Occupancy bitmap + filled samples only: a restricted stream
        // covering 5% of the sector costs 5% of the page bytes.
        std::vector<uint8_t> bitmap((static_cast<size_t>(tw) * th + 7) / 8, 0);
        std::vector<double> samples;
        uint32_t filled_cells = 0;
        for (int64_t r = 0; r < th; ++r) {
          for (int64_t c = 0; c < tw; ++c) {
            const size_t cell = static_cast<size_t>((r0 + r) * lw + (c0 + c));
            if (!img.filled[cell]) continue;
            const size_t bit = static_cast<size_t>(r * tw + c);
            bitmap[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
            ++filled_cells;
            for (int b = 0; b < bands; ++b) {
              samples.push_back(img.raster.At(c0 + c, r0 + r, b));
            }
          }
        }
        if (filled_cells == 0) continue;  // empty tiles are never written
        payload.clear();
        PutI64(payload, info.frame_id);
        PutU32(payload, static_cast<uint32_t>(tc));
        PutU32(payload, static_cast<uint32_t>(tr));
        PutU16(payload, tw);
        PutU16(payload, th);
        PutU16(payload, static_cast<uint16_t>(bands));
        PutU16(payload, 0);
        payload.insert(payload.end(), bitmap.begin(), bitmap.end());
        for (double v : samples) PutF64(payload, v);

        TileRef ref;
        ref.segment = 0;               // fixed up after the append
        ref.offset = run.size();       // relative to the run for now
        ref.tile_col = static_cast<uint32_t>(tc);
        ref.tile_row = static_cast<uint32_t>(tr);
        ref.tile_w = tw;
        ref.tile_h = th;
        const size_t before = run.size();
        AppendHeader(run, RecordType::kTilePage, static_cast<uint8_t>(l),
                     payload);
        ref.length = static_cast<uint32_t>(run.size() - before);
        frame->levels[l].tiles.push_back(ref);
        ++level_counts[l];
        ++total_tiles;
      }
    }
  }

  {
    payload.clear();
    PutI64(payload, info.frame_id);
    PutU16(payload, static_cast<uint16_t>(levels.size()));
    for (uint32_t count : level_counts) PutU32(payload, count);
    AppendHeader(run, RecordType::kFrameCommit, 0, payload);
  }

  Status st = EnsureOpenLocked(src);
  if (st.ok()) st = src->active->Append(run.data(), run.size());
  if (st.ok() && options_.fsync_frames) st = src->active->Sync();
  if (gov != nullptr) gov->RecordWriteResult("store", st);
  if (!st.ok()) {
    // Abandon the segment: the partial run has no commit record, so
    // recovery (and every reader — it is not indexed) ignores it.
    if (src->active != nullptr) {
      Status ignored = src->active->Close();
      (void)ignored;
      src->active.reset();
    }
    src->tainted = true;
    ++src->stats.write_errors;
    if (m_write_errors_) m_write_errors_->Increment();
    return st;
  }

  const uint64_t base_off = src->active_bytes;
  src->active_bytes += run.size();
  for (StoredLevel& lv : frame->levels) {
    for (TileRef& ref : lv.tiles) {
      ref.segment = src->active_index;
      ref.offset += base_off;
    }
  }
  frame->segment = src->active_index;
  frame->run_offset = base_off;
  frame->run_bytes = run.size();
  frame->stored_ms = NowMs();
  SourceStore::SegmentState& seg = src->segments[src->active_index];
  seg.bytes = src->active_bytes;
  seg.live_bytes += run.size();
  ++seg.live_frames;
  if (gov != nullptr) {
    gov->AddUsage("store", static_cast<int64_t>(run.size()));
  }
  src->watermark = std::max(src->watermark, info.frame_id);
  src->frames.emplace(info.frame_id, std::move(frame));
  ++src->stats.frames_written;
  src->stats.tiles_written += total_tiles;
  src->stats.bytes_written += run.size();
  if (m_frames_written_) m_frames_written_->Increment();
  if (m_tiles_written_) m_tiles_written_->Increment(total_tiles);
  if (m_bytes_written_) m_bytes_written_->Increment(run.size());
  if (m_put_latency_us_) m_put_latency_us_->Observe(ElapsedUs(t0));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Read path

int64_t TileStore::Watermark(const std::string& source) const {
  SourceStore* src = FindSource(source);
  if (src == nullptr) return std::numeric_limits<int64_t>::min();
  std::lock_guard<std::mutex> lock(src->mu);
  return src->watermark;
}

std::vector<int64_t> TileStore::FrameIds(const std::string& source,
                                         int64_t lo, int64_t hi) const {
  std::vector<int64_t> out;
  SourceStore* src = FindSource(source);
  if (src == nullptr) return out;
  std::lock_guard<std::mutex> lock(src->mu);
  for (auto it = src->frames.lower_bound(lo);
       it != src->frames.end() && it->first <= hi; ++it) {
    out.push_back(it->first);
  }
  return out;
}

Status TileStore::ReadTileRecord(SourceStore* src, const TileRef& ref,
                                 std::vector<uint8_t>* buf) {
  // Lock order is mu -> read_mu everywhere (GC pre-caches fds while
  // holding mu), so the cache miss path releases read_mu before
  // touching the segment table.
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(src->read_mu);
    auto it = src->read_fds.find(ref.segment);
    if (it != src->read_fds.end()) fd = it->second;
  }
  if (fd < 0) {
    std::lock_guard<std::mutex> seg_lock(src->mu);
    // Look again under mu: a GC pass that retired the segment while
    // this reader waited for mu cached a pre-unlink fd for it.
    {
      std::lock_guard<std::mutex> lock(src->read_mu);
      auto it = src->read_fds.find(ref.segment);
      if (it != src->read_fds.end()) fd = it->second;
    }
    if (fd < 0) {
      if (ref.segment >= src->segments.size()) {
        return Status::Internal("tile ref names an unknown segment");
      }
      if (src->segments[ref.segment].dead) {
        // Only reachable when GC's pre-unlink open failed: the tile is
        // gone; the scan serves what survives.
        return Status::IoError("tile page segment retired under the index");
      }
      // Open while still holding mu: GC unlinks only under mu, so the
      // path cannot vanish between the check above and the open.
      const std::string& path = src->segments[ref.segment].path;
      const int opened = ::open(path.c_str(), O_RDONLY);
      if (opened < 0) {
        return Status::IoError(StringPrintf("open %s: %s", path.c_str(),
                                            std::strerror(errno)));
      }
      std::lock_guard<std::mutex> lock(src->read_mu);
      fd = src->read_fds.emplace(ref.segment, opened).first->second;
    }
  }
  buf->resize(ref.length);
  size_t got = 0;
  while (got < ref.length) {
    const ssize_t n =
        ::pread(fd, buf->data() + got, ref.length - got,
                static_cast<off_t>(ref.offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StringPrintf("pread: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IoError("tile page truncated under the index");
    }
    got += static_cast<size_t>(n);
  }
  RecordType type;
  uint8_t level;
  const uint8_t* payload;
  size_t payload_len;
  GEOSTREAMS_ASSIGN_OR_RETURN(
      size_t total, ValidateRecord(buf->data(), buf->size(), &type, &level,
                                   &payload, &payload_len));
  if (total != buf->size() || type != RecordType::kTilePage) {
    return Status::IoError("tile ref does not address a tile page");
  }
  return Status::OK();
}

Status TileStore::EmitFrame(SourceStore* src,
                            const std::shared_ptr<const StoredFrame>& frame,
                            const StoreScan& scan, EventSink* sink) {
  const auto t0 = std::chrono::steady_clock::now();
  // The deepest overview whose scale stays within the reduce hint:
  // reading a 4x-reduced view touches ~1/16th of the cells.
  size_t level = 0;
  while (level + 1 < frame->levels.size() &&
         (1 << static_cast<int>(level + 1)) <= std::max(scan.reduce, 1)) {
    ++level;
  }
  const StoredLevel& lv = frame->levels[level];
  const GridLattice& lattice = lv.lattice;

  FrameInfo info;
  info.frame_id = frame->frame_id;
  info.lattice = lattice;
  // Same convention as the stream generator's FrameBegin; nothing
  // gates frame completion on it (FrameEnd does), it is metadata.
  info.expected_points = lattice.num_cells();
  GEOSTREAMS_RETURN_IF_ERROR(sink->Consume(StreamEvent::FrameBegin(info)));

  BoundingBox region_bounds;
  if (scan.region != nullptr) region_bounds = scan.region->bounds();
  const double half_x = std::abs(lattice.dx()) / 2.0;
  const double half_y = std::abs(lattice.dy()) / 2.0;

  auto batch = std::make_shared<PointBatch>();
  auto reset_batch = [&] {
    batch = std::make_shared<PointBatch>();
    batch->frame_id = frame->frame_id;
    batch->band_count = frame->band_count;
    batch->Reserve(scan.max_batch_points);
  };
  reset_batch();
  auto flush_batch = [&]() -> Status {
    if (batch->empty()) return Status::OK();
    PointBatchPtr out = std::move(batch);
    reset_batch();
    return sink->Consume(StreamEvent::Batch(std::move(out)));
  };

  // Temporal pruning: a frame outside the pushed-down time sets emits
  // its Begin/End (the live temporal op forwards control events, and
  // replay must match that sequence exactly) but reads no tiles.
  bool times_pass = true;
  for (const TimeSet& times : scan.times) {
    if (!times.Contains(frame->frame_id)) {
      times_pass = false;
      break;
    }
  }

  uint64_t tiles_read = 0;
  uint64_t tile_errors = 0;
  std::vector<uint8_t> buf;
  bool warned = false;
  static const std::vector<TileRef> kNoTiles;
  for (const TileRef& ref : times_pass ? lv.tiles : kNoTiles) {
    if (scan.region != nullptr) {
      // Tile extent from cell centres, padded by half a cell.
      const int64_t c0 = static_cast<int64_t>(ref.tile_col) *
                         options_.tile_size;
      const int64_t r0 = static_cast<int64_t>(ref.tile_row) *
                         options_.tile_size;
      const double x0 = lattice.CellX(c0);
      const double x1 = lattice.CellX(c0 + ref.tile_w - 1);
      const double y0 = lattice.CellY(r0);
      const double y1 = lattice.CellY(r0 + ref.tile_h - 1);
      BoundingBox tile_box(std::min(x0, x1) - half_x, std::min(y0, y1) - half_y,
                           std::max(x0, x1) + half_x,
                           std::max(y0, y1) + half_y);
      if (!tile_box.Intersects(region_bounds)) continue;
    }
    Status st = ReadTileRecord(src, ref, &buf);
    if (!st.ok()) {
      // Serve what survives: a rotten page loses its tile, not the
      // frame, and the loss is counted and logged once.
      ++tile_errors;
      if (m_tile_read_errors_) m_tile_read_errors_->Increment();
      if (!warned) {
        warned = true;
        GEOSTREAMS_LOG(kWarning)
            << "tile store source '" << src->name << "': unreadable tile in "
            << "frame " << frame->frame_id << ": " << st.ToString();
      }
      continue;
    }
    ++tiles_read;
    const uint8_t* payload = buf.data() + kStoreHeaderSize;
    PayloadReader reader{payload, buf.size() - kStoreHeaderSize};
    reader.I64();  // frame id (validated by the index)
    reader.U32();  // tile col
    reader.U32();  // tile row
    const uint16_t tw = reader.U16();
    const uint16_t th = reader.U16();
    const uint16_t bands = reader.U16();
    reader.U16();
    const size_t bitmap_len = (static_cast<size_t>(tw) * th + 7) / 8;
    const uint8_t* bitmap = reader.Take(bitmap_len);
    if (!reader.ok || bands != frame->band_count || tw != ref.tile_w ||
        th != ref.tile_h) {
      ++tile_errors;
      if (m_tile_read_errors_) m_tile_read_errors_->Increment();
      continue;
    }
    const int64_t c0 = static_cast<int64_t>(ref.tile_col) * options_.tile_size;
    const int64_t r0 = static_cast<int64_t>(ref.tile_row) * options_.tile_size;
    std::vector<double> vals(static_cast<size_t>(bands));
    for (int64_t r = 0; r < th; ++r) {
      for (int64_t c = 0; c < tw; ++c) {
        const size_t bit = static_cast<size_t>(r * tw + c);
        if ((bitmap[bit >> 3] & (1u << (bit & 7))) == 0) continue;
        bool keep = true;
        const int64_t col = c0 + c;
        const int64_t row = r0 + r;
        if (scan.region != nullptr &&
            !scan.region->Contains(lattice.CellX(col), lattice.CellY(row))) {
          keep = false;
        }
        if (keep) {
          for (int b = 0; b < bands; ++b) {
            vals[static_cast<size_t>(b)] = reader.F64();
          }
          batch->Append(static_cast<int32_t>(col), static_cast<int32_t>(row),
                        frame->frame_id, vals.data());
          if (batch->size() >= scan.max_batch_points) {
            GEOSTREAMS_RETURN_IF_ERROR(flush_batch());
          }
        } else {
          reader.Take(static_cast<size_t>(bands) * 8);  // skip the samples
        }
      }
    }
  }
  GEOSTREAMS_RETURN_IF_ERROR(flush_batch());
  GEOSTREAMS_RETURN_IF_ERROR(sink->Consume(StreamEvent::FrameEnd(info)));

  {
    std::lock_guard<std::mutex> lock(src->mu);
    ++src->stats.frames_read;
    src->stats.tiles_read += tiles_read;
    src->stats.tile_read_errors += tile_errors;
  }
  if (m_frames_read_) m_frames_read_->Increment();
  if (m_tiles_read_) m_tiles_read_->Increment(tiles_read);
  if (m_scan_frame_latency_us_) m_scan_frame_latency_us_->Observe(ElapsedUs(t0));
  return Status::OK();
}

namespace {

bool FramePasses(int64_t frame_id, const StoreScan& scan) {
  // Only the id bounds select frames; scan.times prune tile IO inside
  // EmitFrame but never suppress a frame's control events.
  return frame_id >= scan.min_frame_id && frame_id <= scan.max_frame_id;
}

}  // namespace

Status TileStore::Scan(const std::string& source, const StoreScan& scan,
                       EventSink* sink) {
  SourceStore* src = FindSource(source);
  if (src == nullptr) return Status::OK();
  // active_scans is raised under the index lock, BEFORE snapshotting:
  // GC observing zero scans knows no reader can hold pre-prune frame
  // pointers, so tombstoned fds are safe to reap.
  std::vector<std::shared_ptr<const StoredFrame>> frames;
  {
    std::lock_guard<std::mutex> lock(src->mu);
    src->active_scans.fetch_add(1, std::memory_order_relaxed);
    for (auto it = src->frames.lower_bound(scan.min_frame_id);
         it != src->frames.end() && it->first <= scan.max_frame_id; ++it) {
      if (FramePasses(it->first, scan)) frames.push_back(it->second);
    }
  }
  Status st = Status::OK();
  for (const auto& frame : frames) {
    st = EmitFrame(src, frame, scan, sink);
    if (!st.ok()) break;
  }
  src->active_scans.fetch_sub(1, std::memory_order_release);
  return st;
}

Status TileStore::ScanFrame(const std::string& source, int64_t frame_id,
                            const StoreScan& scan, EventSink* sink) {
  SourceStore* src = FindSource(source);
  if (src == nullptr) {
    return Status::NotFound("no stored frames for source " + source);
  }
  std::shared_ptr<const StoredFrame> frame;
  {
    std::lock_guard<std::mutex> lock(src->mu);
    src->active_scans.fetch_add(1, std::memory_order_relaxed);
    auto it = src->frames.find(frame_id);
    if (it != src->frames.end()) frame = it->second;
  }
  Status st;
  if (frame == nullptr || !FramePasses(frame_id, scan)) {
    st = Status::NotFound(StringPrintf(
        "frame %lld is not stored for source %s",
        static_cast<long long>(frame_id), source.c_str()));
  } else {
    st = EmitFrame(src, frame, scan, sink);
  }
  src->active_scans.fetch_sub(1, std::memory_order_release);
  return st;
}

StoreHorizon TileStore::Horizon(const std::string& source) const {
  StoreHorizon out;
  SourceStore* src = FindSource(source);
  if (src == nullptr) return out;
  std::lock_guard<std::mutex> lock(src->mu);
  if (!src->frames.empty()) out.oldest_frame_id = src->frames.begin()->first;
  out.pruned_upto = src->pruned_upto;
  out.frames_pruned = src->stats.frames_pruned;
  return out;
}

TileStoreStats TileStore::TotalStats() const {
  std::vector<SourceStore*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources.reserve(sources_.size());
    for (const auto& [name, src] : sources_) sources.push_back(src.get());
  }
  TileStoreStats total;
  for (SourceStore* src : sources) {
    std::lock_guard<std::mutex> lock(src->mu);
    total.frames_written += src->stats.frames_written;
    total.tiles_written += src->stats.tiles_written;
    total.bytes_written += src->stats.bytes_written;
    total.write_errors += src->stats.write_errors;
    total.frames_read += src->stats.frames_read;
    total.tiles_read += src->stats.tiles_read;
    total.tile_read_errors += src->stats.tile_read_errors;
    total.frames_rejected += src->stats.frames_rejected;
    total.sync_errors += src->stats.sync_errors;
    total.frames_pruned += src->stats.frames_pruned;
    total.segments_deleted += src->stats.segments_deleted;
    total.segments_rewritten += src->stats.segments_rewritten;
    total.bytes_reclaimed += src->stats.bytes_reclaimed;
  }
  return total;
}

Status TileStore::SyncAll() {
  std::vector<SourceStore*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources.reserve(sources_.size());
    for (const auto& [name, src] : sources_) sources.push_back(src.get());
  }
  Status first = Status::OK();
  for (SourceStore* src : sources) {
    std::lock_guard<std::mutex> lock(src->mu);
    if (src->active == nullptr) continue;
    Status st = src->active->Sync();
    if (!st.ok()) {
      ++src->stats.sync_errors;
      if (m_sync_errors_) m_sync_errors_->Increment();
      if (first.ok()) first = st;
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// Retention and garbage collection

void TileStore::GcThreadMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(gc_wake_mu_);
      gc_cv_.wait_for(lock, std::chrono::milliseconds(options_.gc_interval_ms),
                      [this] { return stopping_; });
      if (stopping_) return;
    }
    Status st = RunRetentionNow();
    if (!st.ok()) {
      GEOSTREAMS_LOG(kWarning)
          << "tile store retention pass: " << st.ToString();
    }
  }
}

Status TileStore::RunRetentionNow() {
  std::lock_guard<std::mutex> gc_lock(gc_mu_);
  std::vector<SourceStore*> sources;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sources.reserve(sources_.size());
    for (const auto& [name, src] : sources_) sources.push_back(src.get());
  }
  Status first = Status::OK();
  for (SourceStore* src : sources) {
    Status st = ApplyRetentionSource(src);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status TileStore::ApplyRetentionSource(SourceStore* src) {
  StorageGovernor* gov = options_.governor;
  uint64_t max_bytes = options_.retention_max_bytes;
  uint64_t max_age_ms = options_.retention_max_age_ms;
  const uint64_t max_frames = options_.retention_max_frames;
  if (gov != nullptr) {
    // The governor's "store" budget tightens the static knobs
    // (applied per source, like the journal's retention caps).
    const SubsystemBudget budget = gov->Budget("store");
    if (budget.max_bytes > 0 &&
        (max_bytes == 0 || budget.max_bytes < max_bytes)) {
      max_bytes = budget.max_bytes;
    }
    if (budget.max_age_ms > 0 &&
        (max_age_ms == 0 || budget.max_age_ms < max_age_ms)) {
      max_age_ms = budget.max_age_ms;
    }
  }
  const uint64_t now = NowMs();
  Status first = Status::OK();
  uint64_t reclaimed_total = 0;
  uint64_t pruned_this_pass = 0;
  uint64_t segments_deleted_this_pass = 0;
  uint64_t segments_rewritten_this_pass = 0;

  std::lock_guard<std::mutex> lock(src->mu);

  // Phase 1 — prune the oldest frames over budget. Disk bytes only
  // actually drop when segment GC (phase 2) runs, so the byte budget
  // works on a projection that debits each pruned frame's run.
  uint64_t projected = 0;
  for (const auto& seg : src->segments) {
    if (!seg.dead) projected += seg.bytes;
  }
  while (src->frames.size() > options_.retention_min_frames) {
    auto oldest = src->frames.begin();
    bool evict = false;
    if (max_frames > 0 && src->frames.size() > max_frames) evict = true;
    if (!evict && max_bytes > 0 && projected > max_bytes) evict = true;
    if (!evict && max_age_ms > 0) {
      const uint64_t stored = oldest->second->stored_ms;
      if (now > stored && now - stored > max_age_ms) evict = true;
    }
    if (!evict) break;
    const StoredFrame& f = *oldest->second;
    if (f.segment < src->segments.size()) {
      SourceStore::SegmentState& seg = src->segments[f.segment];
      seg.live_bytes -= std::min(seg.live_bytes, f.run_bytes);
      if (seg.live_frames > 0) --seg.live_frames;
    }
    projected -= std::min(projected, f.run_bytes);
    src->pruned_upto = std::max(src->pruned_upto, f.frame_id);
    ++src->stats.frames_pruned;
    ++pruned_this_pass;
    if (m_frames_pruned_) m_frames_pruned_->Increment();
    src->frames.erase(oldest);
  }

  // Phase 2 — segment GC over sealed segments. The newest slot is
  // skipped (it is the active segment or this incarnation's resume
  // target); vector growth inside a rewrite is why access is by
  // index, never by held reference.
  const uint32_t seg_count = static_cast<uint32_t>(src->segments.size());
  for (uint32_t i = 0; i + 1 < seg_count; ++i) {
    if (src->segments[i].dead) continue;
    if (src->active != nullptr && i == src->active_index) continue;
    if (src->segments[i].live_frames == 0) {
      const uint64_t freed = RetireSegmentLocked(src, i);
      if (freed > 0) {
        reclaimed_total += freed;
        ++src->stats.segments_deleted;
        ++segments_deleted_this_pass;
        if (m_segments_deleted_) m_segments_deleted_->Increment();
      }
      continue;
    }
    const uint64_t bytes = src->segments[i].bytes;
    const uint64_t live = std::min(bytes, src->segments[i].live_bytes);
    if (options_.gc_rewrite_dead_fraction > 0 && bytes > 0) {
      const double dead_fraction =
          static_cast<double>(bytes - live) / static_cast<double>(bytes);
      if (dead_fraction >= options_.gc_rewrite_dead_fraction) {
        uint64_t reclaimed = 0;
        Status st = RewriteSegmentLocked(src, i, &reclaimed);
        reclaimed_total += reclaimed;
        if (reclaimed > 0) ++segments_rewritten_this_pass;
        if (!st.ok() && first.ok()) first = st;
      }
    }
  }

  ReapDeadFdsLocked(src);

  if (reclaimed_total > 0) {
    src->stats.bytes_reclaimed += reclaimed_total;
    if (m_bytes_reclaimed_) m_bytes_reclaimed_->Increment(reclaimed_total);
    if (gov != nullptr) {
      gov->AddUsage("store", -static_cast<int64_t>(reclaimed_total));
    }
  }
  if (options_.event_log != nullptr &&
      (pruned_this_pass > 0 || segments_deleted_this_pass > 0 ||
       segments_rewritten_this_pass > 0)) {
    // One event per source per pass, never per frame: a steady prune
    // cadence cannot evict more interesting ring entries.
    options_.event_log->Append(
        EventSeverity::kInfo, "store", "retention",
        StringPrintf("source=%s pruned=%llu segments_deleted=%llu "
                     "segments_rewritten=%llu reclaimed_bytes=%llu",
                     src->name.c_str(),
                     static_cast<unsigned long long>(pruned_this_pass),
                     static_cast<unsigned long long>(
                         segments_deleted_this_pass),
                     static_cast<unsigned long long>(
                         segments_rewritten_this_pass),
                     static_cast<unsigned long long>(reclaimed_total)));
  }
  return first;
}

uint64_t TileStore::RetireSegmentLocked(SourceStore* src, uint32_t seg_index) {
  SourceStore::SegmentState& seg = src->segments[seg_index];
  {
    // Cache a read fd BEFORE the unlink: a scan that snapshotted
    // before the prune keeps reading the unlinked file through it
    // (POSIX keeps the inode alive until the last fd closes).
    std::lock_guard<std::mutex> rlock(src->read_mu);
    if (src->read_fds.find(seg_index) == src->read_fds.end()) {
      const int fd = ::open(seg.path.c_str(), O_RDONLY);
      if (fd >= 0) src->read_fds.emplace(seg_index, fd);
    }
  }
  std::error_code ec;
  fs::remove(seg.path, ec);
  if (ec) {
    GEOSTREAMS_LOG(kWarning)
        << "tile store: remove " << seg.path << ": " << ec.message()
        << " (will retry next pass)";
    return 0;
  }
  const uint64_t freed = seg.bytes;
  seg.dead = true;
  seg.bytes = 0;
  seg.live_bytes = 0;
  seg.live_frames = 0;
  src->dead_fd_reap.push_back(seg_index);
  return freed;
}

Status TileStore::RewriteSegmentLocked(SourceStore* src, uint32_t seg_index,
                                       uint64_t* reclaimed) {
  *reclaimed = 0;
  // Surviving frames of this segment, in file order.
  std::vector<std::shared_ptr<const StoredFrame>> live;
  for (const auto& [id, frame] : src->frames) {
    if (frame->segment == seg_index) live.push_back(frame);
  }
  std::sort(live.begin(), live.end(),
            [](const std::shared_ptr<const StoredFrame>& a,
               const std::shared_ptr<const StoredFrame>& b) {
              return a->run_offset < b->run_offset;
            });
  if (live.empty()) {
    const uint64_t freed = RetireSegmentLocked(src, seg_index);
    if (freed > 0) {
      *reclaimed = freed;
      ++src->stats.segments_deleted;
      if (m_segments_deleted_) m_segments_deleted_->Increment();
    }
    return Status::OK();
  }

  const uint64_t old_bytes = src->segments[seg_index].bytes;
  std::vector<uint8_t> data;
  GEOSTREAMS_RETURN_IF_ERROR(
      ReadWholeFile(src->segments[seg_index].path, &data));

  // Pack the live runs into a fresh page, written through the
  // injectable factory so crash kill-points and injected ENOSPC gate
  // GC exactly like ingestion.
  std::vector<uint8_t> packed;
  std::vector<uint64_t> new_offsets;
  new_offsets.reserve(live.size());
  for (const auto& frame : live) {
    if (frame->run_offset + frame->run_bytes > data.size()) {
      return Status::Internal(StringPrintf(
          "frame %lld run exceeds segment bounds",
          static_cast<long long>(frame->frame_id)));
    }
    new_offsets.push_back(packed.size());
    packed.insert(packed.end(), data.begin() + frame->run_offset,
                  data.begin() + frame->run_offset + frame->run_bytes);
  }

  const std::string path =
      src->dir + "/" + kPagePrefix +
      StringPrintf("%06llu",
                   static_cast<unsigned long long>(src->next_page_no++)) +
      kPageSuffix;
  Status st;
  {
    Result<std::unique_ptr<WritableFile>> out = OpenFile(path);
    if (!out.ok()) return out.status();
    st = (*out)->Append(packed.data(), packed.size());
    // The copy is durable before the original is unlinked: a crash in
    // between leaves the frames committed twice, and recovery's
    // duplicate-frame dedup keeps exactly one.
    if (st.ok()) st = (*out)->Sync();
    Status close_st = (*out)->Close();
    if (st.ok()) st = close_st;
  }
  if (options_.governor != nullptr) {
    options_.governor->RecordWriteResult("store", st);
  }
  if (!st.ok()) {
    std::error_code ec;
    fs::remove(path, ec);  // the half-written copy is dead weight
    return st;
  }

  // Install the copy: new segment slot, fresh StoredFrame objects
  // (in-flight snapshots keep the old ones and their cached fd).
  src->segments.push_back(SourceStore::SegmentState{});
  const uint32_t new_index = static_cast<uint32_t>(src->segments.size() - 1);
  SourceStore::SegmentState& new_seg = src->segments[new_index];
  new_seg.path = path;
  new_seg.bytes = packed.size();
  new_seg.live_bytes = packed.size();
  new_seg.live_frames = live.size();
  for (size_t k = 0; k < live.size(); ++k) {
    auto copy = std::make_shared<StoredFrame>(*live[k]);
    copy->segment = new_index;
    copy->run_offset = new_offsets[k];
    for (StoredLevel& lv : copy->levels) {
      for (TileRef& ref : lv.tiles) {
        ref.segment = new_index;
        ref.offset = ref.offset - live[k]->run_offset + new_offsets[k];
      }
    }
    src->frames[copy->frame_id] = std::move(copy);
  }

  const uint64_t freed = RetireSegmentLocked(src, seg_index);
  if (freed >= packed.size()) {
    *reclaimed = freed - packed.size();
  }
  ++src->stats.segments_rewritten;
  if (m_segments_rewritten_) m_segments_rewritten_->Increment();
  if (options_.governor != nullptr && freed == 0) {
    // Unlink failed: the new copy still landed, account its bytes.
    options_.governor->AddUsage("store", static_cast<int64_t>(packed.size()));
  }
  return Status::OK();
}

void TileStore::ReapDeadFdsLocked(SourceStore* src) {
  if (src->dead_fd_reap.empty()) return;
  if (src->active_scans.load(std::memory_order_acquire) != 0) return;
  std::lock_guard<std::mutex> rlock(src->read_mu);
  for (uint32_t idx : src->dead_fd_reap) {
    auto it = src->read_fds.find(idx);
    if (it != src->read_fds.end()) {
      ::close(it->second);
      src->read_fds.erase(it);
    }
  }
  src->dead_fd_reap.clear();
}

// ---------------------------------------------------------------------------
// StoreIngestSink

namespace {

/// Minimum gap between store-failure warnings from one sink. A
/// degraded disk fails every frame; one line per frame floods the log
/// without adding information.
constexpr uint64_t kStoreWarnIntervalMs = 5000;

uint64_t SteadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

StoreIngestSink::StoreIngestSink(TileStore* store, std::string source)
    : store_(store), source_(std::move(source)) {}

void StoreIngestSink::WarnStoreFailure(const Status& status,
                                       const char* what) {
  const uint64_t now = SteadyMs();
  if (in_error_streak_ && now - last_warn_ms_ < kStoreWarnIntervalMs) {
    ++suppressed_warnings_;
    return;
  }
  std::string suppressed;
  if (suppressed_warnings_ > 0) {
    suppressed = StringPrintf(
        ", %llu similar suppressed",
        static_cast<unsigned long long>(suppressed_warnings_));
  }
  in_error_streak_ = true;
  last_warn_ms_ = now;
  suppressed_warnings_ = 0;
  GEOSTREAMS_LOG(kWarning)
      << "tile store " << what << " on " << source_
      << " (live chain continues" << suppressed
      << "): " << status.ToString();
}

void StoreIngestSink::NoteStoreSuccess() {
  if (!in_error_streak_) return;
  std::string suppressed;
  if (suppressed_warnings_ > 0) {
    suppressed = StringPrintf(
        " (%llu warnings were suppressed)",
        static_cast<unsigned long long>(suppressed_warnings_));
  }
  in_error_streak_ = false;
  last_warn_ms_ = 0;
  suppressed_warnings_ = 0;
  GEOSTREAMS_LOG(kInfo)
      << "tile store writes recovered on " << source_ << suppressed;
}

Status StoreIngestSink::Consume(const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin:
      // A Begin while a frame is open means its End was lost: the
      // open frame is incomplete and must not enter history (live
      // subscribers never saw it finish either).
      assembler_.Abort();
      pending_info_ = event.frame;
      frame_pending_ = true;
      return Status::OK();
    case EventKind::kPointBatch: {
      if (event.batch == nullptr) return Status::OK();
      if (frame_pending_ && !assembler_.active()) {
        Status st = assembler_.Begin(pending_info_, event.batch->band_count);
        if (!st.ok()) {
          frame_pending_ = false;
          store_errors_.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        }
      }
      if (!assembler_.active() ||
          event.batch->frame_id != assembler_.frame_id()) {
        // Point-by-point instruments (no frames) and stray batches
        // are not framed history; the store only persists frames.
        return Status::OK();
      }
      Status st = assembler_.Add(*event.batch);
      if (!st.ok()) {
        assembler_.Abort();
        frame_pending_ = false;
        store_errors_.fetch_add(1, std::memory_order_relaxed);
        WarnStoreFailure(st, "skips frame");
      }
      return Status::OK();
    }
    case EventKind::kFrameEnd: {
      if (!frame_pending_) return Status::OK();
      frame_pending_ = false;
      if (!assembler_.active()) {
        // A frame with no batches still happened: record it so a
        // catch-up replay reproduces the exact live sequence.
        Status st = assembler_.Begin(pending_info_, 1);
        if (!st.ok()) {
          store_errors_.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        }
      }
      Result<AssembledFrame> assembled = assembler_.Finish();
      if (!assembled.ok()) {
        store_errors_.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      Status st = store_->PutFrame(source_, pending_info_, assembled->raster,
                                   assembled->filled);
      if (st.ok()) {
        frames_stored_.fetch_add(1, std::memory_order_relaxed);
        NoteStoreSuccess();
      } else {
        store_errors_.fetch_add(1, std::memory_order_relaxed);
        WarnStoreFailure(st, "write failed");
      }
      return Status::OK();
    }
    case EventKind::kStreamEnd:
      assembler_.Abort();
      frame_pending_ = false;
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace geostreams
