// End-to-end serving benchmark: pre-generated GOES scans go through
// ProducerClient -> loopback TCP -> IngestSession -> (journal) ->
// DsmsServer ingest / shared restriction -> QueryScheduler -> operator
// chain -> delivery fan-out -> ClientSession -> GeoStreamsClient, all
// inside this one process.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --out <dir>
//
// The load is an open loop: scans are due at a fixed rate per
// workload, rows paced evenly across each scan period, and every frame
// is timed from the due time of its scan's last row, so a stall counts
// against every frame behind it. Frames of a verified prefix of scans,
// and every frame a catch-up replays, are checked against digests of
// the same queries run on a network-free server; latency and CPU are
// measured over the scans after that prefix, with the verifier's own
// CPU time taken out.
// `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the
// untraced run, then runs again with server tracing on and spans
// recorded around the calls into each layer, and prints the per-layer
// metrics. The last stdout line is one JSON object.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "net/geostreams_client.h"
#include "net/net_server.h"
#include "net/producer_client.h"

namespace geostreams {
namespace e2ebench {
namespace {

constexpr int64_t kCellsPerBand = 64 << 10;
/// Pool of distinct scans replayed under fresh frame ids. 12 is one
/// full cycle of the GOES routine schedule (full disk every 12 scans,
/// northern hemisphere every 4, CONUS otherwise), so a replayed frame
/// id keeps the sector the schedule gives it.
constexpr int64_t kPoolScans = 12;
/// Scans at the start of a run whose every delivered frame is
/// digest-checked: one pool cycle, so each distinct scan is verified
/// once. They come before the `--seconds` that are measured.
constexpr int64_t kVerifiedScans = kPoolScans;
constexpr size_t kWorkers = 2;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 7;
/// The first scan is due this long after the run starts, so the
/// pacing thread starts on schedule.
constexpr auto kLeadIn = std::chrono::milliseconds(50);

struct WorkloadSpec {
  const char* name;
  double scans_per_sec;
  double latency_limit_ms;
  /// Client connections carrying the live subscriptions.
  size_t live_connections;
  /// Journal (group commit) and tile store on.
  bool durable;
  /// A `QUERY ... SINCE` probe every this many scans (0 = none), each
  /// replaying `catchup_history` stored scans.
  int catchup_every;
  int catchup_history;
  /// Scans published before the run (history for the probes); part
  /// of set-up.
  int prefill_scans;
  /// Stream paced half a scan period behind the others (null = every
  /// band in lockstep). The probes read it and no live subscription
  /// does, so a probe's replay, that stream's PutFrame and the GC pass
  /// that follows it still race each other, half a period away from
  /// the live frames' FrameEnd.
  const char* staggered_stream;
};

// Rates are a third to a half of what the seed commit sustains on a
// 4-core host (about 8, 7 and 12 scans/s): at higher load the latency
// percentiles follow the shared host's speed too closely to compare
// runs. Latency limits are a few times the seed's p95 at these rates.
constexpr WorkloadSpec kWorkloads[] = {
    {"live_fanout", 3.0, 400.0, 2, false, 0, 0, 0, nullptr},
    {"ndvi_products", 3.5, 300.0, 1, false, 0, 0, 0, nullptr},
    {"durable_catchup", 6.0, 150.0, 1, true, 2, 8, 16, "goes.band1"},
};

// ---------------------------------------------------------------------
// Inputs.

/// splitmix64: the seed's only consumer besides the synthetic Earth.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

/// A box of fixed size at a seeded position inside [x0,x1]x[y0,y1]:
/// seeds move boxes, never resize them, so work per scan stays put.
std::string Box(Rng* rng, double w, double h, double x0, double y0, double x1,
                double y1) {
  const double x = rng->Uniform(x0, x1 - w);
  const double y = rng->Uniform(y0, y1 - h);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "bbox(%.2f, %.2f, %.2f, %.2f)", x, y, x + w,
                y + h);
  return buf;
}

// Lon/lat extent every sector of the GOES routine covers (CONUS), and
// its Mercator image.
std::string ConusBox(Rng* rng, double w, double h) {
  return Box(rng, w, h, -125.0, 24.0, -66.0, 50.0);
}
std::string MercatorBox(Rng* rng, double w, double h) {
  return Box(rng, w, h, -13.9e6, 2.8e6, -7.4e6, 6.4e6);
}

const char kNdvi[] = "ndvi(goes.band2, goes.band1)";

struct QuerySet {
  /// Live subscription texts, per client connection.
  std::vector<std::vector<std::string>> per_connection;
  /// The catch-up probe's text (empty = no probe).
  std::string probe;
};

QuerySet MakeQueries(const WorkloadSpec& w, uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + std::strlen(w.name));
  QuerySet qs;
  qs.per_connection.resize(w.live_connections);
  const std::string name = w.name;
  if (name == "live_fanout") {
    // 48 raw regional subscriptions in three box sizes, 16 value
    // ranges; alternate bands and connections.
    for (int i = 0; i < 64; ++i) {
      const int band = 1 + i % 2;
      std::string text;
      if (i < 48) {
        const double side = 6.0 + 4.0 * (i % 3);
        text = "region(goes.band" + std::to_string(band) + ", " +
               ConusBox(&rng, side, side * 0.6) + ")";
      } else {
        const double lo = rng.Uniform(0.0, 0.5);
        char buf[96];
        std::snprintf(buf, sizeof(buf), "vrange(goes.band%d, 0, %.3f, %.3f)",
                      band, lo, lo + 0.4);
        text = buf;
      }
      qs.per_connection[static_cast<size_t>(i) % w.live_connections]
          .push_back(text);
    }
  } else if (name == "ndvi_products") {
    const std::string shared_box = ConusBox(&rng, 25.0, 17.0);
    const std::string shared_merc = MercatorBox(&rng, 3.0e6, 2.5e6);
    const std::string reprojected =
        std::string("reproject(") + kNdvi + ", \"mercator\")";
    auto& q = qs.per_connection[0];
    for (int i = 0; i < 8; ++i) {
      q.push_back(std::string("region(") + kNdvi + ", " + shared_box + ")");
    }
    for (int i = 0; i < 8; ++i) {
      q.push_back(std::string("region(") + kNdvi + ", " +
                  ConusBox(&rng, 12.0, 8.0) + ")");
    }
    for (int i = 0; i < 8; ++i) {
      q.push_back("region(" + reprojected + ", " + shared_merc + ")");
    }
    for (int i = 0; i < 8; ++i) {
      q.push_back("region(" + reprojected + ", " +
                  MercatorBox(&rng, 1.5e6, 1.2e6) + ")");
    }
  } else {
    // Live subscriptions on band 2; the probe reads the staggered
    // band 1.
    for (int i = 0; i < 8; ++i) {
      qs.per_connection[0].push_back("region(goes.band2, " +
                                     ConusBox(&rng, 10.0, 6.0) + ")");
    }
    qs.probe = "region(goes.band1, " + ConusBox(&rng, 10.0, 6.0) + ")";
  }
  return qs;
}

InstrumentConfig MakeInstrument(uint64_t seed) {
  // The two E8 bands: 64 Ki cells per band per scan, row by row,
  // scan-sector timestamps.
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = kCellsPerBand;
  config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
  config.name_prefix = "goes";
  config.seed = seed;
  return config;
}

// ---------------------------------------------------------------------
// The served system.

/// Times every ingest event as it enters the engine: interposed
/// through NetServerOptions::ingest_resolver in traced runs, forwarding
/// to DsmsServer::ingest(source).
class TimedIngestSink : public EventSink {
 public:
  TimedIngestSink(EventSink* inner, SpanLog* spans, int64_t first_frame)
      : inner_(inner), spans_(spans), first_frame_(first_frame) {}
  Status Consume(const StreamEvent& event) override {
    const Clock::time_point start = Clock::now();
    Status st = inner_->Consume(event);
    const int64_t frame = event.kind == EventKind::kPointBatch
                              ? event.batch->frame_id
                              : event.frame.frame_id;
    spans_->Add("server.ingest", frame - first_frame_, 0, start, Clock::now());
    return st;
  }

 private:
  EventSink* inner_;
  SpanLog* spans_;
  int64_t first_frame_;
};

/// One server with its clients and producers. Member order is
/// teardown order reversed: producers and clients disconnect before
/// the net server stops, which stops before the engine goes away.
struct Rig {
  std::string storage_dir;
  std::unique_ptr<DsmsServer> dsms;
  std::vector<std::unique_ptr<TimedIngestSink>> timed_sinks;
  std::unique_ptr<NetServer> net;
  std::vector<std::unique_ptr<GeoStreamsClient>> clients;
  std::unique_ptr<GeoStreamsClient> probe;
  std::vector<std::unique_ptr<ProducerClient>> producers;
  /// Server query id -> index into the flattened live query list.
  std::unordered_map<int64_t, size_t> index_of_id;

  ~Rig() {
    producers.clear();
    probe.reset();
    clients.clear();
    if (net) net->Stop();
    net.reset();
    timed_sinks.clear();
    dsms.reset();
    if (!storage_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(storage_dir, ec);
    }
  }
};

/// Everything fixed before timing starts.
struct Bench {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  std::string out_dir;
  QuerySet queries;
  std::vector<std::string> live;  // flattened live texts
  std::vector<size_t> connection_of;  // per live query
  std::vector<GeoStreamDescriptor> streams;  // per pool band
  std::vector<PoolScan> pool;
  ReferenceFrames reference;
  double streamgen_ms_per_scan = 0;
};

struct Failure {
  std::string what;
};

#define E2E_CHECK_OK(expr, what)                                      \
  do {                                                                \
    const ::geostreams::Status _st = (expr);                          \
    if (!_st.ok()) throw Failure{std::string(what) + ": " + _st.ToString()}; \
  } while (0)

Result<std::vector<std::string>> ScrapeMetrics(GeoStreamsClient* client) {
  GEOSTREAMS_ASSIGN_OR_RETURN(std::string head,
                              client->Command("METRICS", 10000));
  unsigned long lines = 0;
  if (std::sscanf(head.c_str(), "OK METRICS lines=%lu", &lines) != 1) {
    return Status::Internal("unexpected METRICS response: " + head);
  }
  std::vector<std::string> out;
  while (out.size() < lines) {
    GEOSTREAMS_ASSIGN_OR_RETURN(GeoStreamsClient::Incoming in,
                                client->ReadNext(10000));
    if (in.eof) return Status::Unavailable("closed during METRICS");
    if (in.line) out.push_back(std::move(*in.line));
  }
  return out;
}

/// Opens the server, starts the net plane, connects and registers
/// every client query over TCP, and (durable workload) pre-fills the
/// store with history: what setup_s times.
std::unique_ptr<Rig> Setup(Bench* b, bool traced, int rep, SpanLog* spans,
                           std::vector<double>* register_ms) {
  const WorkloadSpec& w = *b->spec;
  auto rig = std::make_unique<Rig>();
  DsmsOptions options;
  options.workers = kWorkers;
  options.trace_sample_every = traced ? 1 : 0;
  if (w.durable) {
    rig->storage_dir = b->out_dir + "/storage-" + std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(rig->storage_dir, ec);
    options.journal_dir = rig->storage_dir + "/journal";
    options.journal.fsync = FsyncPolicy::kGroupCommit;
    // Few rotations and no journal retention: a rotation fsyncs and
    // retires closed segments (reading each back, rewriting its live
    // records) under the source's mutex, on the ingest path. With 4 MB
    // segments and a 16 MB budget that stalled a band's ingest on about
    // a third of the scans, and the live p95 followed the shared disk.
    // A run's journal (under 1 GB) is deleted with its rig.
    options.journal.segment_max_bytes = 64u << 20;
    options.store_dir = rig->storage_dir + "/store";
    // Small segments (a few frames each) and a 10-frame budget per
    // source: retention prunes a frame per scan, and GC deletes or
    // rewrites the segments that hold the oldest frames a SINCE probe
    // replays, while it replays them, all run long.
    options.store.segment_max_bytes = 2u << 20;
    options.store.retention_max_frames = 10;
    options.store.gc_rewrite_dead_fraction = 0.3;
    options.store.gc_interval_ms = 20;
  }
  rig->dsms = std::make_unique<DsmsServer>(options);
  for (const GeoStreamDescriptor& desc : b->streams) {
    E2E_CHECK_OK(rig->dsms->RegisterStream(desc), "register stream");
  }
  NetServerOptions net_options;
  net_options.poll_interval_ms = 20;
  if (traced) {
    std::map<std::string, EventSink*> by_source;
    for (const GeoStreamDescriptor& desc : b->streams) {
      rig->timed_sinks.push_back(std::make_unique<TimedIngestSink>(
          rig->dsms->ingest(desc.name()), spans, w.prefill_scans));
      by_source[desc.name()] = rig->timed_sinks.back().get();
    }
    net_options.ingest_resolver = [by_source](const std::string& source) {
      auto it = by_source.find(source);
      return it == by_source.end() ? nullptr : it->second;
    };
  }
  rig->net = std::make_unique<NetServer>(rig->dsms.get(), net_options);
  E2E_CHECK_OK(rig->net->Start(), "net start");
  const uint16_t port = rig->net->port();

  for (size_t c = 0; c < w.live_connections; ++c) {
    rig->clients.push_back(std::make_unique<GeoStreamsClient>());
    E2E_CHECK_OK(rig->clients.back()->Connect("127.0.0.1", port, 5000),
                 "client connect");
  }
  for (size_t i = 0; i < b->live.size(); ++i) {
    GeoStreamsClient* client = rig->clients[b->connection_of[i]].get();
    const Clock::time_point start = Clock::now();
    auto resp = client->Command("QUERY " + b->live[i], 10000);
    const Clock::time_point end = Clock::now();
    E2E_CHECK_OK(resp.status(), "QUERY");
    long long id = -1;
    if (std::sscanf(resp->c_str(), "OK QUERY %lld", &id) != 1) {
      throw Failure{"QUERY refused: " + *resp + " for " + b->live[i]};
    }
    rig->index_of_id[id] = i;
    spans->Add("query.register", -1, 0, start, end);
    if (register_ms != nullptr) {
      register_ms->push_back(
          std::chrono::duration<double, std::milli>(end - start).count());
    }
  }
  if (!b->queries.probe.empty()) {
    rig->probe = std::make_unique<GeoStreamsClient>();
    E2E_CHECK_OK(rig->probe->Connect("127.0.0.1", port, 5000),
                 "probe connect");
  }
  // History goes straight into the engine's ingest boundary, which
  // persists every assembled frame: set-up then times the store's
  // writes, not the producer's ack window.
  std::vector<EventSink*> ingest;
  for (const GeoStreamDescriptor& desc : b->streams) {
    ingest.push_back(rig->dsms->ingest(desc.name()));
  }
  for (int64_t f = 0; f < w.prefill_scans; ++f) {
    // The engine may still hold the batches of the last pool cycle;
    // drain it before their slots are re-stamped.
    if (f > 0 && f % kPoolScans == 0) {
      E2E_CHECK_OK(rig->dsms->Flush(), "prefill drain");
    }
    PoolScan* scan = &b->pool[static_cast<size_t>(f % kPoolScans)];
    Restamp(scan, f);
    for (size_t row = 0; row < scan->num_rows(); ++row) {
      E2E_CHECK_OK(PublishRow(scan, row,
                              [&ingest](size_t band, const StreamEvent& e) {
                                return ingest[band]->Consume(e);
                              }),
                   "prefill");
    }
  }
  E2E_CHECK_OK(rig->dsms->Flush(), "prefill drain");
  return rig;
}

/// Connects one producer per band. Not timed as set-up: setup_s
/// covers the server, its streams and queries, and the history
/// pre-fill, while the two ATTACH round trips alone took 5 to 30 ms
/// per set-up, more than the rest of a live_fanout set-up.
void AttachProducers(const Bench& b, Rig* rig) {
  for (const GeoStreamDescriptor& desc : b.streams) {
    ProducerClientOptions po;
    po.port = rig->net->port();
    po.source = desc.name();
    // An ack window of about four scans of rows per band. At the
    // default 64 messages a server pause of a quarter scan fills the
    // window, and every full window then blocks Publish for the whole
    // resend timeout (PumpAcks returns only once the socket has been
    // quiet until its deadline); the rows that fall due meanwhile
    // refill it at once, so the producer never catches up again.
    po.window_messages = 1024;
    po.replay_max_bytes = 32u << 20;
    rig->producers.push_back(std::make_unique<ProducerClient>(po));
    E2E_CHECK_OK(rig->producers.back()->Connect(), "producer connect");
  }
}

// ---------------------------------------------------------------------
// One timed run.

struct FrameRecord {
  uint32_t query = 0;
  int64_t scan = 0;
  double latency_ms = 0;
  Verdict verdict = Verdict::kOk;
};

struct PhaseResult {
  int64_t scans = 0;  // verified prefix included
  int64_t measured_scans = 0;  // after the prefix
  uint64_t expected = 0;
  uint64_t ok = 0;
  uint64_t missing = 0;
  uint64_t late = 0;
  uint64_t short_frames = 0;
  uint64_t wrong = 0;
  uint64_t duplicates = 0;
  uint64_t unexpected = 0;
  std::vector<double> latency_ms;  // frames of the measured scans
  /// Process CPU over the measured scans, less the verifier's.
  double cpu_ms = 0;
  double verifier_cpu_ms = 0;  // taken out of cpu_ms
  double client_bytes = 0;
  std::vector<double> gen_lag_ms;
  std::vector<double> rss_mb;  // sampled while scans are paced
  std::vector<double> catchup_ms;
  uint64_t catchups = 0;
  std::vector<std::string> errors;
  // Per-layer sources.
  Scrape metrics;  // delta over the run
  ProducerClientStats producer;
  std::vector<ScheduledQueueStats> scheduler;
  uint64_t processed_before = 0;  // scheduler events, live pipelines
  uint64_t processed_after = 0;
  TileStoreStats store_before;
  TileStoreStats store_after;
  std::vector<Span> spans;
};

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Resident set size now, from /proc/self/statm.
double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long long size = 0;
  long long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

class Run {
 public:
  Run(Bench* b, Rig* rig, SpanLog* spans)
      : b_(b),
        w_(*b->spec),
        rig_(rig),
        spans_(spans),
        scans_(kVerifiedScans +
               std::max<int64_t>(
                   1, static_cast<int64_t>(b->seconds * w_.scans_per_sec))),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / w_.scans_per_sec))),
        seen_(b->live.size() * static_cast<size_t>(scans_), 0),
        first_frame_(w_.prefill_scans),
        staggered_band_(StaggeredBand(*b)),
        stagger_(staggered_band_ < 0 ? Clock::duration::zero()
                                     : period_ / 2),
        records_(rig->clients.size()),
        client_bytes_(rig->clients.size(), 0.0) {}

  PhaseResult Execute() {
    PhaseResult r;
    r.scans = scans_;
    r.measured_scans = scans_ - kVerifiedScans;
    // Counters are read before and after the timed part, outside it.
    auto lines = ScrapeMetrics(rig_->clients[0].get());
    E2E_CHECK_OK(lines.status(), "METRICS before");
    const Scrape before = ParseExposition(*lines);
    for (const ScheduledQueueStats& q : rig_->dsms->SchedulerStats()) {
      r.processed_before += q.processed;
    }
    if (rig_->dsms->store() != nullptr) {
      r.store_before = rig_->dsms->store()->TotalStats();
    }
    start_ = Clock::now() + kLeadIn;
    cpu_mark_ms_ = CpuMs();
    std::vector<std::thread> readers;
    for (size_t c = 0; c < rig_->clients.size(); ++c) {
      readers.emplace_back([this, c] { ReadLive(c); });
    }
    std::thread probe;
    if (rig_->probe) probe = std::thread([this] { RunProbes(); });

    Pace(&r);

    for (auto& producer : rig_->producers) {
      Status st = producer->Flush(30000);
      if (!st.ok()) r.errors.push_back("flush: " + st.ToString());
    }
    // Frames still owed are late once the last scan's limit passes.
    const Clock::time_point deadline =
        FrameEndDue(scans_ - 1) + stagger_ +
        std::chrono::milliseconds(static_cast<int64_t>(w_.latency_limit_ms)) +
        std::chrono::milliseconds(200);
    const uint64_t expected_live = b_->live.size() * static_cast<size_t>(scans_);
    while (received_.load() < expected_live && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    probes_done_.store(true);
    if (probe.joinable()) probe.join();
    stop_.store(true);
    for (auto& t : readers) t.join();
    r.verifier_cpu_ms =
        static_cast<double>(verifier_cpu_ns_.load() - verifier_mark_ns_) / 1e6;
    r.cpu_ms = CpuMs() - cpu_mark_ms_ - r.verifier_cpu_ms;

    Tally(&r);
    for (auto& producer : rig_->producers) {
      const ProducerClientStats& s = producer->stats();
      r.producer.window_stalls += s.window_stalls;
      r.producer.retransmits += s.retransmits;
      r.producer.nacks += s.nacks;
    }
    lines = ScrapeMetrics(rig_->clients[0].get());
    E2E_CHECK_OK(lines.status(), "METRICS after");
    r.metrics = Delta(ParseExposition(*lines), before);
    r.scheduler = rig_->dsms->SchedulerStats();
    for (const ScheduledQueueStats& q : r.scheduler) {
      r.processed_after += q.processed;
    }
    if (rig_->dsms->store() != nullptr) {
      r.store_after = rig_->dsms->store()->TotalStats();
    }
    return r;
  }

 private:
  Clock::time_point ScanStart(int64_t k) const { return start_ + k * period_; }
  Clock::duration RowOffset(size_t row, size_t rows) const {
    return period_ * static_cast<int64_t>(row) / static_cast<int64_t>(rows);
  }
  /// Index of the workload's staggered stream, or -1. Live
  /// subscriptions must not read it: their latency counts from the
  /// FrameEnd of the bands in lockstep.
  static int StaggeredBand(const Bench& b) {
    if (b.spec->staggered_stream == nullptr) return -1;
    const std::string name = b.spec->staggered_stream;
    for (const std::string& q : b.live) {
      if (q.find(name) != std::string::npos) {
        throw Failure{"live query reads the staggered stream: " + q};
      }
    }
    for (size_t i = 0; i < b.streams.size(); ++i) {
      if (b.streams[i].name() == name) return static_cast<int>(i);
    }
    throw Failure{"no stream " + name};
  }

  PoolScan* Slot(int64_t k) const {
    return &b_->pool[static_cast<size_t>((first_frame_ + k) % kPoolScans)];
  }
  /// Due time of scan k's last row, which carries every FrameEnd of
  /// the bands in lockstep (the staggered band's comes stagger_ later).
  Clock::time_point FrameEndDue(int64_t k) const {
    const size_t rows = Slot(k)->num_rows();
    return ScanStart(k) + RowOffset(rows - 1, rows);
  }

  /// The one load thread: publishes every row of every scan on
  /// schedule to both band producers. Lane 0 carries the bands in
  /// lockstep, lane 1 (if any) the staggered band, stagger_ later.
  void Pace(PhaseResult* r) {
    Clock::time_point next_rss = start_;
    const int lanes = staggered_band_ < 0 ? 1 : 2;
    int64_t lane_scan[2] = {0, 0};
    size_t lane_row[2] = {0, 0};
    for (;;) {
      int lane = -1;
      Clock::time_point due;
      for (int l = 0; l < lanes; ++l) {
        if (lane_scan[l] >= scans_) continue;
        const int64_t k = lane_scan[l];
        const size_t rows = Slot(k)->num_rows();
        const Clock::time_point d = ScanStart(k) +
                                    RowOffset(lane_row[l], rows) +
                                    (l == 1 ? stagger_ : Clock::duration{});
        if (lane < 0 || d < due) {
          lane = l;
          due = d;
        }
      }
      if (lane < 0) return;
      const int64_t k = lane_scan[lane];
      const size_t row = lane_row[lane];
      PoolScan* scan = Slot(k);
      // Lane 0 reaches a scan first; the staggered lane is then still
      // on the previous scan, in another pool slot.
      if (lane == 0 && row == 0) Restamp(scan, first_frame_ + k);
      std::this_thread::sleep_until(due);
      if (lane == 0 && row == 0 && k == kVerifiedScans) {
        // The measured scans start: CPU from here on counts, except
        // what the verifier spends.
        verifier_mark_ns_ = verifier_cpu_ns_.load();
        cpu_mark_ms_ = CpuMs();
      }
      const Clock::time_point now = Clock::now();
      r->gen_lag_ms.push_back(std::max(0.0, Ms(now - due)));
      if (now >= next_rss) {
        r->rss_mb.push_back(RssMb());
        next_rss = now + std::chrono::milliseconds(50);
      }
      Status st = PublishRow(
          scan, row, [this, k, lane, lanes](size_t band,
                                             const StreamEvent& event) {
            if (lanes == 2 &&
                (static_cast<int>(band) == staggered_band_) != (lane == 1)) {
              return Status::OK();  // the other lane's band
            }
            const Clock::time_point s = Clock::now();
            Status ps = rig_->producers[band]->Publish(event);
            spans_->Add("net.publish", k, 0, s, Clock::now());
            return ps;
          });
      if (!st.ok()) {
        r->errors.push_back("publish: " + st.ToString());
        return;
      }
      if (++lane_row[lane] == scan->num_rows()) {
        lane_row[lane] = 0;
        ++lane_scan[lane];
      }
    }
  }

  /// Reader thread of one live-subscription connection.
  void ReadLive(size_t c) {
    GeoStreamsClient* client = rig_->clients[c].get();
    std::vector<FrameRecord>& out = records_[c];
    while (!stop_.load()) {
      const Clock::time_point start = Clock::now();
      auto in = client->ReadNext(20);
      if (!in.ok()) {
        if (in.status().code() == StatusCode::kUnavailable) continue;
        AddError("reader: " + in.status().ToString());
        return;
      }
      if (in->eof) {
        AddError("reader: server closed the connection");
        return;
      }
      if (!in->frame) continue;
      const Clock::time_point now = Clock::now();
      const FrameMessage& f = *in->frame;
      const int64_t k = f.frame_id - first_frame_;
      if (k < 0) continue;  // history pre-fill
      spans_->Add("client.read", k, 0, start, now);
      auto it = rig_->index_of_id.find(f.query_id);
      if (it == rig_->index_of_id.end() || k >= scans_) {
        unexpected_.fetch_add(1);
        continue;
      }
      client_bytes_[c] += static_cast<double>(
          kWireHeaderSize + f.samples.size() * sizeof(double) +
          f.png_bytes.size());
      FrameRecord rec;
      rec.query = static_cast<uint32_t>(it->second);
      rec.scan = k;
      rec.latency_ms = Ms(now - FrameEndDue(k));
      rec.verdict = Check(b_->live[it->second], f, k < kVerifiedScans);
      uint8_t& seen = seen_[it->second * static_cast<size_t>(scans_) +
                            static_cast<size_t>(k)];
      if (seen != 0) {
        duplicates_.fetch_add(1);
        continue;
      }
      seen = 1;
      out.push_back(rec);
      received_.fetch_add(1);
    }
  }

  /// Digest-checks `f` against the reference when `digest` is set
  /// (its thread CPU time goes to verifier_cpu_ns_), else its shape
  /// only.
  Verdict Check(const std::string& text, const FrameMessage& f, bool digest) {
    const FrameDigest* want = b_->reference.Lookup(text, f.frame_id);
    if (want == nullptr) return Verdict::kWrong;
    if (!digest) {
      const bool same_shape = f.width == want->width &&
                              f.height == want->height &&
                              f.bands == want->bands;
      return same_shape ? Verdict::kOk : Verdict::kWrong;
    }
    const int64_t t0 = ThreadCpuNs();
    const Verdict v = Classify(DigestSamples(f.width, f.height, f.bands,
                                             f.samples.data(), f.samples.size()),
                               *want);
    verifier_cpu_ns_.fetch_add(ThreadCpuNs() - t0);
    return v;
  }

  /// The catch-up connection: on a fixed cadence, `QUERY <probe> SINCE
  /// <H scans back>` sent just before the probe stream's FrameEnd of a
  /// scan is due, so the replay races that frame's PutFrame and the GC
  /// pass after it; reads
  /// the replayed history plus that first live frame, then
  /// unregisters.
  void RunProbes() {
    GeoStreamsClient* client = rig_->probe.get();
    const int every = w_.catchup_every;
    for (int64_t k = every; k < scans_; k += every) {
      const int64_t target = first_frame_ + k;
      const int64_t since = target - w_.catchup_history;
      std::this_thread::sleep_until(FrameEndDue(k) + stagger_ -
                                    std::chrono::milliseconds(2));
      if (probes_done_.load()) return;
      ++probes_attempted_;
      const Clock::time_point sent = Clock::now();
      Status st = client->Send("QUERY " + b_->queries.probe + " SINCE " +
                               std::to_string(since));
      if (!st.ok()) {
        AbandonProbes(k, "probe send: " + st.ToString());
        return;
      }
      int64_t qid = -1;
      std::vector<FrameMessage> frames;
      bool done = false;
      const Clock::time_point give_up =
          sent + std::chrono::milliseconds(
                     static_cast<int64_t>(4 * w_.latency_limit_ms) + 1000);
      while (!done && Clock::now() < give_up) {
        auto in = client->ReadNext(20);
        if (!in.ok()) {
          if (in.status().code() == StatusCode::kUnavailable) continue;
          AbandonProbes(k, "probe read: " + in.status().ToString());
          return;
        }
        if (in->eof) {
          AbandonProbes(k, "probe: server closed the connection");
          return;
        }
        if (in->line) {
          long long id = -1;
          if (std::sscanf(in->line->c_str(), "OK QUERY %lld", &id) == 1) {
            qid = id;
          } else if (in->line->rfind("ERR", 0) == 0) {
            AddError("probe: " + *in->line);
            break;
          }
        }
        if (in->frame) frames.push_back(std::move(*in->frame));
        if (qid < 0) continue;
        for (const FrameMessage& f : frames) {
          if (f.query_id == qid && f.frame_id >= target) {
            done = true;
            std::lock_guard<std::mutex> lock(mu_);
            catchup_ms_.push_back(Ms(Clock::now() - sent));
            break;
          }
        }
      }
      // Every id in [since, target] exactly once, each matching the
      // live frame with that id.
      std::vector<int> count(static_cast<size_t>(target - since + 1), 0);
      uint64_t ok = 0;
      uint64_t bad_short = 0;
      uint64_t bad_wrong = 0;
      for (const FrameMessage& f : frames) {
        if (f.query_id != qid) continue;
        if (f.frame_id < since || f.frame_id > target) continue;
        if (count[static_cast<size_t>(f.frame_id - since)]++ > 0) {
          duplicates_.fetch_add(1);
          continue;
        }
        switch (Check(b_->queries.probe, f, true)) {
          case Verdict::kOk: ++ok; break;
          case Verdict::kShort: ++bad_short; break;
          case Verdict::kWrong: ++bad_wrong; break;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        probe_expected_ += count.size();
        probe_ok_ += ok;
        probe_short_ += bad_short;
        probe_wrong_ += bad_wrong;
      }
      if (qid >= 0) {
        auto resp = client->Command("UNREGISTER " + std::to_string(qid), 10000);
        if (!resp.ok()) AddError("probe unregister: " + resp.status().ToString());
      }
      // Frames of the unregistered query may still be parked; drop them.
      while (client->pending_frames() > 0) (void)client->ReadFrame(0);
    }
  }

  /// The probe connection failed at scan k: that probe's frames and
  /// every later probe's are owed and missing.
  void AbandonProbes(int64_t k, std::string e) {
    uint64_t owed = 0;
    for (int64_t j = k; j < scans_; j += w_.catchup_every) {
      owed += static_cast<uint64_t>(w_.catchup_history) + 1;
    }
    std::lock_guard<std::mutex> lock(mu_);
    errors_.push_back(std::move(e));
    probe_expected_ += owed;
  }

  void AddError(std::string e) {
    std::lock_guard<std::mutex> lock(mu_);
    errors_.push_back(std::move(e));
  }

  void Tally(PhaseResult* r) {
    const double limit = w_.latency_limit_ms;
    for (size_t c = 0; c < rig_->clients.size(); ++c) {
      r->client_bytes += client_bytes_[c];
      for (const FrameRecord& rec : records_[c]) {
        if (rec.scan >= kVerifiedScans) r->latency_ms.push_back(rec.latency_ms);
        if (rec.verdict == Verdict::kShort) {
          ++r->short_frames;
        } else if (rec.verdict == Verdict::kWrong) {
          ++r->wrong;
        } else if (rec.latency_ms > limit) {
          ++r->late;
        } else {
          ++r->ok;
        }
      }
    }
    const uint64_t live_expected =
        b_->live.size() * static_cast<uint64_t>(scans_);
    uint64_t live_received = 0;
    for (size_t c = 0; c < rig_->clients.size(); ++c) {
      live_received += records_[c].size();
    }
    r->missing = live_expected - live_received;
    std::lock_guard<std::mutex> lock(mu_);
    r->expected = live_expected + probe_expected_;
    r->ok += probe_ok_;
    r->short_frames += probe_short_;
    r->wrong += probe_wrong_;
    r->missing += probe_expected_ - probe_ok_ - probe_short_ - probe_wrong_;
    r->duplicates = duplicates_.load();
    r->unexpected = unexpected_.load();
    r->catchup_ms = catchup_ms_;
    r->catchups = probes_attempted_;
    for (const std::string& e : errors_) r->errors.push_back(e);
  }

  Bench* b_;
  const WorkloadSpec& w_;
  Rig* rig_;
  SpanLog* spans_;
  const int64_t scans_;
  const Clock::duration period_;
  Clock::time_point start_;
  /// Per (query, scan): frame seen. Each query's slots are written by
  /// its connection's reader only.
  std::vector<uint8_t> seen_;
  const int64_t first_frame_;
  const int staggered_band_;
  const Clock::duration stagger_;
  /// Per live connection, written by its reader thread only.
  std::vector<std::vector<FrameRecord>> records_;
  std::vector<double> client_bytes_;
  std::atomic<uint64_t> received_{0};
  std::atomic<uint64_t> duplicates_{0};
  std::atomic<uint64_t> unexpected_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> probes_done_{false};
  std::atomic<int64_t> verifier_cpu_ns_{0};
  /// Read as the first measured scan falls due.
  int64_t verifier_mark_ns_ = 0;
  double cpu_mark_ms_ = 0;
  uint64_t probes_attempted_ = 0;
  std::mutex mu_;
  std::vector<std::string> errors_;
  std::vector<double> catchup_ms_;
  uint64_t probe_expected_ = 0;
  uint64_t probe_ok_ = 0;
  uint64_t probe_short_ = 0;
  uint64_t probe_wrong_ = 0;
};

/// Set up, run once, tear down. `setup_s` collects the set-up time.
PhaseResult RunPhase(Bench* b, bool traced, int rep, std::vector<double>* setup_s,
                     std::vector<double>* register_ms) {
  SpanLog spans(Clock::now());
  spans.set_enabled(traced);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Rig> rig = Setup(b, traced, rep, &spans, register_ms);
  setup_s->push_back(
      std::chrono::duration<double>(Clock::now() - t0).count());
  AttachProducers(*b, rig.get());
  Run run(b, rig.get(), &spans);
  PhaseResult r = run.Execute();
  rig.reset();
  r.spans = spans.Take();
  return r;
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or basis, for the human table
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  return s;
}

/// Frames not delivered correctly, late ones included:
/// frames_failed_frac.
uint64_t Failed(const PhaseResult& r) {
  return r.expected - r.ok;
}

/// Frames missing, short or wrong: the result line's `failed`. A late
/// frame arrived whole and right; lateness depends on the shared host
/// and counts in frames_ok_frac, whose bound gates it.
uint64_t Undelivered(const PhaseResult& r) {
  return Failed(r) - r.late;
}

std::string Count(size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}



void PrintVerification(const PhaseResult& r) {
  std::printf(
      "verify: expected=%" PRIu64 " ok=%" PRIu64 " missing=%" PRIu64
      " late=%" PRIu64 " short=%" PRIu64 " wrong=%" PRIu64
      " duplicates=%" PRIu64 " unexpected=%" PRIu64 " catchups=%" PRIu64
      " window_stalls=%" PRIu64 " gen_lag_p95_ms=%.3f\n",
      r.expected, r.ok, r.missing, r.late, r.short_frames, r.wrong,
      r.duplicates, r.unexpected, r.catchups, r.producer.window_stalls,
      Percentile(r.gen_lag_ms, 0.95));
  for (const std::string& e : r.errors) {
    std::printf("error: %s\n", e.c_str());
  }
}

bool Correct(const PhaseResult& r) {
  return r.wrong == 0 && r.duplicates == 0 && r.unexpected == 0 &&
         r.errors.empty();
}

double CpuMsPerScan(const PhaseResult& r) {
  return r.cpu_ms / static_cast<double>(r.measured_scans);
}

std::vector<Metric> EndToEnd(const PhaseResult& r,
                             const std::vector<double>& setup_s) {
  std::vector<Metric> m;
  const std::string lat_note =
      Count(r.latency_ms.size(), "frames of the measured scans");
  char cpu_note[96];
  std::snprintf(cpu_note, sizeof(cpu_note),
                "n=%" PRId64 " measured scans, verifier's %.1f ms taken out",
                r.measured_scans, r.verifier_cpu_ms);
  m.push_back({"setup_s", Median(setup_s), "s",
               Count(setup_s.size(), "set-ups, median")});
  m.push_back({"latency_p50_ms", Percentile(r.latency_ms, 0.50), "ms",
               lat_note});
  m.push_back({"latency_p95_ms", Percentile(r.latency_ms, 0.95), "ms",
               lat_note});
  m.push_back({"cpu_ms_per_scan", CpuMsPerScan(r), "ms", cpu_note});
  m.push_back({"frames_ok_frac",
               static_cast<double>(r.ok) / static_cast<double>(r.expected),
               "ratio", Count(r.expected, "expected frames")});
  return m;
}

/// Root span of one scan: from its last publish (the FrameEnds) to
/// the last of its frames read by a client. Its self time is what the
/// calls timed from outside do not cover: the server's scheduler,
/// operators and delivery, and the bytes in transit.
constexpr char kScanTail[] = "scan.tail";

/// Appends a kScanTail root per scan and makes it the parent of every
/// span of that scan.
void AddScanRoots(std::vector<Span>* spans) {
  std::map<int64_t, std::pair<int64_t, int64_t>> tail;  // scan -> [start, end]
  for (const Span& sp : *spans) {
    if (sp.scan < 0) continue;
    auto& t = tail[sp.scan];
    if (std::strcmp(sp.name, "net.publish") == 0) {
      t.first = std::max(t.first, sp.start_ns);
    } else if (std::strcmp(sp.name, "client.read") == 0) {
      t.second = std::max(t.second, sp.end_ns);
    }
  }
  std::map<int64_t, uint64_t> root_of;
  const size_t leaves = spans->size();
  for (const auto& [scan, t] : tail) {
    if (t.second <= t.first) continue;
    Span root;
    root.id = spans->size() + 1;
    root.name = kScanTail;
    root.scan = scan;
    root.start_ns = t.first;
    root.end_ns = t.second;
    spans->push_back(root);
    root_of[scan] = root.id;
  }
  for (size_t i = 0; i < leaves; ++i) {
    Span& sp = (*spans)[i];
    auto it = root_of.find(sp.scan);
    if (it != root_of.end()) sp.parent = it->second;
  }
}

/// Self time of every span: its duration minus what its children
/// cover. Spans are indexed by id - 1.
std::vector<std::pair<const Span*, int64_t>> SelfTimes(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& sp : spans) {
    if (sp.parent != 0) {
      children[sp.parent - 1].push_back({sp.start_ns, sp.end_ns});
    }
  }
  std::vector<std::pair<const Span*, int64_t>> out;
  for (const Span& sp : spans) {
    out.push_back({&sp, SelfTimeNs(sp.start_ns, sp.end_ns,
                                   std::move(children[sp.id - 1]))});
  }
  return out;
}

/// Self time per scan, by span name (the layer the span times).
void PrintSelfTimes(const std::vector<Span>& spans, int64_t scans) {
  std::map<std::string, double> by_name;
  for (const auto& [sp, self_ns] : SelfTimes(spans)) {
    by_name[sp->name] += static_cast<double>(self_ns);
  }
  std::printf("self time per scan, by span\n");
  for (const auto& [name, ns] : by_name) {
    std::printf("  %-34s %14.6g ms\n", name.c_str(),
                ns / 1e6 / static_cast<double>(scans));
  }
}

double StoreDelta(const PhaseResult& r, uint64_t TileStoreStats::*field) {
  return static_cast<double>(r.store_after.*field - r.store_before.*field);
}

double Points(const PhaseResult& r) {
  return static_cast<double>(r.scans) * 2.0 * kCellsPerBand;
}

/// Journal plus store bytes written per ingested point.
double DiskBytesPerPoint(const PhaseResult& r) {
  return (SumSeries(r.metrics, "geostreams_journal_append_bytes_total") +
          StoreDelta(r, &TileStoreStats::bytes_written)) /
         Points(r);
}

std::vector<Metric> PerLayer(const Bench& b, const PhaseResult& traced,
                             double untraced_cpu_ms_per_scan,
                             const std::vector<double>& register_ms) {
  const PhaseResult& r = traced;
  const Scrape& s = r.metrics;
  const double scans = static_cast<double>(r.scans);
  const double points = Points(r);
  const std::string lat = "geostreams_e2e_latency_us";
  const std::string ops = "geostreams_operator_latency_us";
  auto stage = [&](const char* st, double q) {
    return HistogramQuantile(s, lat, {std::string("stage=\"") + st + "\""}, q);
  };
  auto op_sum = [&](std::initializer_list<const char*> labels) {
    double total = 0;
    for (const char* l : labels) {
      total += SumSeries(s, ops + "_sum", {std::string("op=\"") + l + "\""});
    }
    return total;
  };
  std::vector<double> publish_us, ingest_us, read_us;
  for (const Span& sp : r.spans) {
    const double us = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
    if (std::strcmp(sp.name, "net.publish") == 0) publish_us.push_back(us);
    if (std::strcmp(sp.name, "server.ingest") == 0 && sp.scan >= 0) {
      ingest_us.push_back(us);
    }
    if (std::strcmp(sp.name, "client.read") == 0) read_us.push_back(us);
  }
  std::vector<double> tail_self_ms;
  for (const auto& [sp, self_ns] : SelfTimes(r.spans)) {
    if (std::strcmp(sp->name, kScanTail) == 0) {
      tail_self_ms.push_back(static_cast<double>(self_ns) / 1e6);
    }
  }
  uint64_t high_water = 0, shed = 0;
  for (const ScheduledQueueStats& q : r.scheduler) {
    high_water = std::max(high_water, q.queue_high_water);
    shed += q.dropped;
  }
  const uint64_t processed = r.processed_after - r.processed_before;
  const double journal_bytes =
      SumSeries(s, "geostreams_journal_append_bytes_total");
  const double store_bytes = StoreDelta(r, &TileStoreStats::bytes_written);
  const double catchups = static_cast<double>(std::max<uint64_t>(r.catchups, 1));
  double sum_ingest = std::accumulate(ingest_us.begin(), ingest_us.end(), 0.0);
  double sum_publish =
      std::accumulate(publish_us.begin(), publish_us.end(), 0.0);
  double sum_read = std::accumulate(read_us.begin(), read_us.end(), 0.0);
  std::vector<double> gen_lag = r.gen_lag_ms;

  std::vector<Metric> m = {
      {"net.publish_us_p50", Percentile(publish_us, 0.5), "us", Count(publish_us.size(), "publishes")},
      {"net.publish_us_p95", Percentile(publish_us, 0.95), "us", Count(publish_us.size(), "publishes")},
      {"net.window_stalls", static_cast<double>(r.producer.window_stalls), "count", ""},
      {"net.retransmits", static_cast<double>(r.producer.retransmits), "count", ""},
      {"net.nacks", static_cast<double>(r.producer.nacks), "count", ""},
      {"net.deliver_us_p95", stage("deliver", 0.95), "us", "stage=deliver"},
      {"net.write_us_p50", stage("write", 0.5), "us", "stage=write"},
      {"net.write_us_p95", stage("write", 0.95), "us", "stage=write"},
      {"net.frames_shed", SumSeries(s, "geostreams_client_frames_shed_total"), "count", ""},
      {"net.client_mb_per_scan", r.client_bytes / 1e6 / scans, "MB", "read by clients"},
      {"server.send_us_p95", stage("send", 0.95), "us", "stage=send"},
      {"server.ingest_us_per_scan", sum_ingest / scans, "us", Count(ingest_us.size(), "ingest calls")},
      {"server.ingest_us_p95", Percentile(ingest_us, 0.95), "us", Count(ingest_us.size(), "ingest calls")},
      {"stream.queue_us_p50", stage("queue", 0.5), "us", "stage=queue"},
      {"stream.queue_us_p95", stage("queue", 0.95), "us", "stage=queue"},
      {"stream.queue_high_water", static_cast<double>(high_water), "count", "max over pipelines"},
      {"stream.shed_batches", static_cast<double>(shed), "count", ""},
      {"stream.events_per_scan", static_cast<double>(processed) / scans, "count", "live subscriptions' pipelines"},
      {"ops.compose_us_per_scan", op_sum({"compose", "ndvi"}) / scans, "us", ""},
      {"ops.reproject_us_per_scan", op_sum({"reproject"}) / scans, "us", ""},
      {"ops.restrict_us_per_scan", op_sum({"region", "restrict", "spatial_restrict", "shared_restriction", "vrange", "value_restrict"}) / scans, "us", ""},
      {"ops.operators_us_p95", stage("operators", 0.95), "us", "stage=operators"},
      {"raster.delivery_us_per_scan", op_sum({"delivery"}) / scans, "us", ""},
      {"storage.journal_us_p50", stage("journal", 0.5), "us", "stage=journal"},
      {"storage.journal_us_p95", stage("journal", 0.95), "us", "stage=journal"},
      {"storage.fsyncs_per_scan", SumSeries(s, "geostreams_journal_fsyncs_total") / scans, "count", ""},
      {"storage.fsync_us_p95", HistogramQuantile(s, "geostreams_journal_fsync_latency_us", {}, 0.95), "us", ""},
      {"storage.journal_bytes_per_pt", journal_bytes / points, "B", ""},
      {"store.put_us_p95", HistogramQuantile(s, "geostreams_store_put_latency_us", {}, 0.95), "us", ""},
      {"store.bytes_per_pt", store_bytes / points, "B", ""},
      {"store.scan_frame_us_p50", HistogramQuantile(s, "geostreams_store_scan_frame_latency_us", {}, 0.5), "us", ""},
      {"store.tiles_read_per_catchup", StoreDelta(r, &TileStoreStats::tiles_read) / catchups, "count", Count(r.catchups, "catch-ups")},
      {"store.tile_read_errors", StoreDelta(r, &TileStoreStats::tile_read_errors), "count", ""},
      {"store.bytes_reclaimed_per_scan", StoreDelta(r, &TileStoreStats::bytes_reclaimed) / scans, "B", ""},
      {"store.segments_rewritten", StoreDelta(r, &TileStoreStats::segments_rewritten), "count", ""},
      {"catchup_ms_p50", Percentile(r.catchup_ms, 0.5), "ms", Count(r.catchup_ms.size(), "catch-ups")},
      {"disk_bytes_per_pt", DiskBytesPerPoint(r), "B", "journal + store"},
      {"span.publish_us_per_scan", sum_publish / scans, "us", "self time"},
      {"span.read_us_per_scan", sum_read / scans, "us", "self time"},
      {"span.tail_self_ms_p50", Percentile(tail_self_ms, 0.5), "ms", Count(tail_self_ms.size(), "scans")},
      {"query.register_ms_p50", Percentile(register_ms, 0.5), "ms", Count(register_ms.size(), "QUERY round trips")},
      {"obs.trace_overhead_frac", CpuMsPerScan(r) / untraced_cpu_ms_per_scan - 1.0, "ratio", "traced / untraced cpu_ms_per_scan - 1"},
      {"mem.rss_mb", Median(r.rss_mb), "MB", Count(r.rss_mb.size(), "samples while paced, median")},
      {"mem.peak_rss_mb", PeakRssMb(), "MB", "process peak, set-ups included"},
      {"harness.gen_lag_p95_ms", Percentile(gen_lag, 0.95), "ms", Count(gen_lag.size(), "rows")},
      {"harness.streamgen_ms_per_scan", b.streamgen_ms_per_scan, "ms", "set-up only"},
  };
  return m;
}

void WriteSpans(const Bench& b, const std::vector<Span>& spans) {
  const std::string path = b.out_dir + "/spans-" + b.spec->name + "-seed" +
                           std::to_string(b.seed) + ".csv";
  std::ofstream out(path);
  out << "id,parent,name,scan,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.name << ',' << s.scan << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

int Main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  std::string out_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") seed = std::atoll(v);
    else if (flag == "--seconds") seconds = std::atof(v);
    else if (flag == "--trace") trace = std::atoi(v);
    else if (flag == "--out") out_dir = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr || seed < 0 || seconds <= 0 || trace < 0 || trace > 1 ||
      out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload live_fanout|ndvi_products|"
                 "durable_catchup --seed N --seconds S --trace 0|1 --out DIR\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  std::filesystem::create_directories(out_dir);

  Bench b;
  b.spec = spec;
  b.seed = static_cast<uint64_t>(seed);
  // A traced run measures twice (untraced, then traced), each for half
  // the time, so both kinds of run take about as long.
  b.seconds = trace == 1 ? seconds / 2 : seconds;
  b.out_dir = out_dir;
  b.queries = MakeQueries(*spec, b.seed);
  for (size_t c = 0; c < b.queries.per_connection.size(); ++c) {
    for (const std::string& q : b.queries.per_connection[c]) {
      b.live.push_back(q);
      b.connection_of.push_back(c);
    }
  }

  // Inputs, before anything is timed.
  StreamGenerator gen(MakeInstrument(b.seed), ScanSchedule::GoesRoutine());
  E2E_CHECK_OK(gen.Init(), "generator init");
  for (size_t band = 0; band < gen.config().bands.size(); ++band) {
    auto desc = gen.Descriptor(band);
    E2E_CHECK_OK(desc.status(), "descriptor");
    b.streams.push_back(*desc);
  }
  const Clock::time_point g0 = Clock::now();
  auto pool = GeneratePool(&gen, kPoolScans);
  E2E_CHECK_OK(pool.status(), "scan pool");
  b.streamgen_ms_per_scan = Ms(Clock::now() - g0) / kPoolScans;
  b.pool = std::move(*pool);
  std::vector<std::string> reference_queries = b.live;
  if (!b.queries.probe.empty()) reference_queries.push_back(b.queries.probe);
  E2E_CHECK_OK(b.reference.Build(b.streams, reference_queries, &b.pool),
               "reference");

  std::vector<double> setup_s;
  std::vector<double> register_ms;
  const int repeats = trace == 0 ? kSetupRepeats : 1;
  // The first set-up also runs. The extra ones only time setting up,
  // after the run, so the files they write and delete (the durable
  // workload's history) are not flushed and trimmed during it.
  PhaseResult untraced = RunPhase(&b, false, 0, &setup_s, &register_ms);
  for (int rep = 1; rep < repeats; ++rep) {
    SpanLog spans(Clock::now());
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Rig> rig = Setup(&b, false, rep, &spans, &register_ms);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  PrintVerification(untraced);
  const double untraced_cpu = CpuMsPerScan(untraced);

  if (trace == 0) {
    std::vector<Metric> m = EndToEnd(untraced, setup_s);
    PrintTable((std::string("end-to-end, workload ") + spec->name).c_str(), m);
    const double failed_frac = static_cast<double>(Failed(untraced)) /
                               static_cast<double>(untraced.expected);
    std::printf("  %-34s %14.6g %-6s %s\n", "frames_failed_frac", failed_frac,
                "ratio", Count(untraced.expected, "expected frames").c_str());
    std::printf("  %-34s %14.6g %-6s %s\n", "catchup_ms_p50",
                Percentile(untraced.catchup_ms, 0.5), "ms",
                Count(untraced.catchup_ms.size(), "catch-ups").c_str());
    std::printf("  %-34s %14.6g %-6s %s\n", "disk_bytes_per_pt",
                DiskBytesPerPoint(untraced), "B", "journal + store");
    std::printf("  %-34s %14.6g %-6s %s\n", "mem.rss_mb", Median(untraced.rss_mb),
                "MB", Count(untraced.rss_mb.size(), "samples while paced, median").c_str());
    std::printf("  %-34s %14.6g %-6s %s\n", "mem.peak_rss_mb", PeakRssMb(), "MB",
                "process peak, set-ups included");
    std::printf("%s\n",
                ResultJson(Correct(untraced), untraced.expected,
                           Undelivered(untraced), m)
                    .c_str());
    return 0;
  }

  std::vector<double> traced_setup;
  std::vector<double> traced_register;
  PhaseResult traced = RunPhase(&b, true, repeats + 1, &traced_setup,
                                &traced_register);
  PrintVerification(traced);
  AddScanRoots(&traced.spans);
  std::vector<Metric> m = PerLayer(b, traced, untraced_cpu, traced_register);
  PrintTable((std::string("per-layer, workload ") + spec->name).c_str(), m);
  PrintSelfTimes(traced.spans, traced.scans);
  WriteSpans(b, traced.spans);
  const bool correct = Correct(untraced) && Correct(traced);
  std::printf("%s\n", ResultJson(correct, traced.expected, Undelivered(traced), m)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench
}  // namespace geostreams

int main(int argc, char** argv) {
  try {
    return geostreams::e2ebench::Main(argc, argv);
  } catch (const geostreams::e2ebench::Failure& f) {
    std::fprintf(stderr, "e2ebench: %s\n", f.what.c_str());
    return 1;
  }
}
