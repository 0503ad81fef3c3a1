// Tests of the benchmark's own verifier: frames that arrive over TCP
// match the network-free reference, and a deliberately corrupted or
// truncated frame does not. Run with `python3 e2ebench/run.py
// --self-test`; exits non-zero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "net/geostreams_client.h"
#include "net/net_server.h"
#include "net/producer_client.h"

namespace geostreams {
namespace e2ebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

#define ASSERT_OK(expr)                                                \
  do {                                                                 \
    const Status _st = (expr);                                         \
    if (!_st.ok()) {                                                   \
      std::fprintf(stderr, "%s:%d: %s\n", __FILE__, __LINE__,          \
                   _st.ToString().c_str());                            \
      std::exit(1);                                                    \
    }                                                                  \
  } while (0)

constexpr int64_t kPool = 3;
const char kRegion[] = "region(goes.band1, bbox(-110, 30, -95, 40))";
const char kNdvi[] =
    "region(ndvi(goes.band2, goes.band1), bbox(-120, 28, -100, 45))";

struct Inputs {
  std::vector<GeoStreamDescriptor> streams;
  std::vector<PoolScan> pool;
};

Inputs MakeInputs() {
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = 64 * 48;
  config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
  StreamGenerator gen(config, ScanSchedule::GoesRoutine());
  ASSERT_OK(gen.Init());
  Inputs in;
  for (size_t b = 0; b < config.bands.size(); ++b) {
    auto desc = gen.Descriptor(b);
    ASSERT_OK(desc.status());
    in.streams.push_back(*desc);
  }
  auto pool = GeneratePool(&gen, kPool);
  ASSERT_OK(pool.status());
  in.pool = std::move(*pool);
  return in;
}

void TestClassify() {
  const std::vector<double> base = {0.5, 0.25, 0.0, 0.75};
  const FrameDigest want = DigestSamples(2, 2, 1, base.data(), base.size());
  EXPECT(Classify(want, want) == Verdict::kOk);
  std::vector<double> flipped = base;
  flipped[1] = 0.2500001;
  EXPECT(Classify(DigestSamples(2, 2, 1, flipped.data(), 4), want) ==
         Verdict::kWrong);
  std::vector<double> dropped = base;
  dropped[3] = 0.0;  // a point that never arrived keeps the 0.0 fill
  EXPECT(Classify(DigestSamples(2, 2, 1, dropped.data(), 4), want) ==
         Verdict::kShort);
  EXPECT(Classify(DigestSamples(4, 1, 1, base.data(), 4), want) ==
         Verdict::kWrong);
}

void TestSpansAndHistograms() {
  // Parent [0, 100) with children [10, 30) and [20, 50) and one
  // reaching past the end [90, 120): 40 + 10 covered, 50 self.
  EXPECT(SelfTimeNs(0, 100, {{10, 30}, {20, 50}, {90, 120}}) == 50);
  const Scrape s = ParseExposition({
      "# TYPE h histogram",
      "h_bucket{stage=\"a\",le=\"10\"} 50",
      "h_bucket{stage=\"a\",le=\"20\"} 100",
      "h_bucket{stage=\"a\",le=\"+Inf\"} 100",
      "h_bucket{stage=\"b\",le=\"10\"} 7",
      "h_sum{stage=\"a\"} 1000",
  });
  EXPECT(HistogramQuantile(s, "h", {"stage=\"a\""}, 0.5) == 10.0);
  EXPECT(HistogramQuantile(s, "h", {"stage=\"a\""}, 0.75) == 15.0);
  EXPECT(SumSeries(s, "h_sum") == 1000.0);
  const Scrape d = Delta(s, ParseExposition({"h_sum{stage=\"a\"} 400"}));
  EXPECT(SumSeries(d, "h_sum") == 600.0);
}

/// Frames delivered over TCP for ids beyond the pool match the
/// reference; corrupting any one of them is caught.
void TestTcpFramesAgainstReference() {
  Inputs in = MakeInputs();
  ReferenceFrames reference;
  ASSERT_OK(reference.Build(in.streams, {kRegion, kNdvi}, &in.pool));
  EXPECT(reference.Lookup("vrange(goes.band1, 0, 0, 1)", 0) == nullptr);

  DsmsOptions options;
  options.workers = 2;
  DsmsServer dsms(options);
  for (const auto& desc : in.streams) ASSERT_OK(dsms.RegisterStream(desc));
  NetServer net(&dsms);
  ASSERT_OK(net.Start());
  GeoStreamsClient client;
  ASSERT_OK(client.Connect("127.0.0.1", net.port(), 5000));
  std::map<int64_t, std::string> text_of;
  for (const char* text : {kRegion, kNdvi}) {
    auto resp = client.Command(std::string("QUERY ") + text);
    ASSERT_OK(resp.status());
    long long id = -1;
    EXPECT(std::sscanf(resp->c_str(), "OK QUERY %lld", &id) == 1);
    text_of[id] = text;
  }
  std::vector<std::unique_ptr<ProducerClient>> producers;
  for (const auto& desc : in.streams) {
    ProducerClientOptions po;
    po.port = net.port();
    po.source = desc.name();
    producers.push_back(std::make_unique<ProducerClient>(po));
    ASSERT_OK(producers.back()->Connect());
  }
  // Replay the pool under ids kPool.. so every lookup wraps around.
  const int64_t first = kPool;
  for (int64_t id = first; id < first + kPool; ++id) {
    PoolScan* scan = &in.pool[static_cast<size_t>(id % kPool)];
    Restamp(scan, id);
    for (size_t row = 0; row < scan->num_rows(); ++row) {
      ASSERT_OK(PublishRow(scan, row, [&](size_t band, const StreamEvent& e) {
        return producers[band]->Publish(e);
      }));
    }
  }
  for (auto& p : producers) ASSERT_OK(p->Flush(10000));

  int frames = 0;
  while (frames < 2 * kPool) {
    auto f = client.ReadFrame(10000);
    ASSERT_OK(f.status());
    ++frames;
    const FrameDigest* want = reference.Lookup(text_of[f->query_id], f->frame_id);
    EXPECT(want != nullptr);
    if (want == nullptr) continue;
    auto digest = [&](const std::vector<double>& samples) {
      return DigestSamples(f->width, f->height, f->bands, samples.data(),
                           samples.size());
    };
    EXPECT(Classify(digest(f->samples), *want) == Verdict::kOk);
    // One corrupted sample.
    std::vector<double> corrupt = f->samples;
    size_t i = 0;
    while (i < corrupt.size() && corrupt[i] == 0.0) ++i;
    EXPECT(i < corrupt.size());
    if (i == corrupt.size()) continue;
    corrupt[i] += 1e-9;
    EXPECT(Classify(digest(corrupt), *want) == Verdict::kWrong);
    // A point lost on the way.
    std::vector<double> truncated = f->samples;
    truncated[i] = 0.0;
    EXPECT(Classify(digest(truncated), *want) == Verdict::kShort);
    // A frame of another scan.
    const FrameDigest* other =
        reference.Lookup(text_of[f->query_id], f->frame_id + 1);
    EXPECT(other != nullptr && Classify(digest(f->samples), *other) ==
                                   Verdict::kWrong);
  }
  producers.clear();
  client.Close();
  net.Stop();
}

}  // namespace
}  // namespace e2ebench
}  // namespace geostreams

int main() {
  geostreams::SetLogLevel(geostreams::LogLevel::kWarning);
  geostreams::e2ebench::TestClassify();
  geostreams::e2ebench::TestSpansAndHistograms();
  geostreams::e2ebench::TestTcpFramesAgainstReference();
  if (geostreams::e2ebench::failures != 0) {
    std::fprintf(stderr, "verify_test: %d check(s) failed\n",
                 geostreams::e2ebench::failures);
    return 1;
  }
  std::printf("verify_test: all checks passed\n");
  return 0;
}
