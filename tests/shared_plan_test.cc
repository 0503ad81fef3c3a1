// The shared operator DAG: identical compute subplans run once per
// distinct input, and each node's cascade tree splits the result per
// consumer. Sharing must never change what a query receives.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "server/dsms_server.h"
#include "server/scan_schedule.h"
#include "server/stream_generator.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

InstrumentConfig TwoBandConfig() {
  InstrumentConfig config;
  config.crs_name = "latlon";
  config.cells_per_sector = 24 * 16;
  config.bands = {SpectralBand::kNearInfrared, SpectralBand::kVisible};
  config.name_prefix = "goes";
  return config;
}

/// A server with the two GOES bands registered and a deterministic
/// generator driving them.
class Rig {
 public:
  explicit Rig(DsmsOptions options)
      : server_(options), gen_(TwoBandConfig(), ScanSchedule::GoesRoutine()) {
    GS_EXPECT_OK(gen_.Init());
    for (size_t b = 0; b < 2; ++b) {
      auto desc = gen_.Descriptor(b);
      EXPECT_TRUE(desc.ok());
      GS_EXPECT_OK(server_.RegisterStream(*desc));
    }
  }

  Status Ingest(int64_t first_scan, int64_t count) {
    std::vector<EventSink*> sinks = {server_.ingest("goes.band2"),
                                     server_.ingest("goes.band1")};
    GEOSTREAMS_RETURN_IF_ERROR(gen_.GenerateScans(first_scan, count, sinks));
    return server_.Flush();
  }

  DsmsServer& server() { return server_; }

 private:
  DsmsServer server_;
  StreamGenerator gen_;
};

/// Frames delivered to one query; callbacks may run on worker threads.
struct Frames {
  std::mutex mu;
  std::vector<std::pair<int64_t, Raster>> frames;

  FrameCallback Callback() {
    return [this](int64_t frame_id, const Raster& raster,
                  const std::vector<uint8_t>&) {
      std::lock_guard<std::mutex> lock(mu);
      frames.emplace_back(frame_id, raster);
    };
  }
};

const char kNdvi[] = "ndvi(goes.band2, goes.band1)";

std::string Box(std::mt19937_64* rng, double w, double h, double x0,
                double y0, double x1, double y1) {
  std::uniform_real_distribution<double> ux(x0, x1 - w), uy(y0, y1 - h);
  const double x = ux(*rng), y = uy(*rng);
  return StringPrintf("bbox(%.3f, %.3f, %.3f, %.3f)", x, y, x + w, y + h);
}
std::string GeoBox(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> side(3.0, 30.0);
  const double w = side(*rng);
  return Box(rng, w, w * 0.7, -125.0, 24.0, -66.0, 50.0);
}
std::string MercBox(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> side(0.3e6, 3.0e6);
  const double w = side(*rng);
  return Box(rng, w, w * 0.8, -13.9e6, 2.8e6, -7.4e6, 6.4e6);
}

/// One query of the seeded mix: identical repeats, box-only variants,
/// nested products, rescales over shared products, private work over
/// shared nodes and lone small-box leaf restrictions.
std::string RandomQuery(std::mt19937_64* rng, const std::string& shared_box) {
  const std::string reproj =
      std::string("reproject(") + kNdvi + ", \"mercator\")";
  switch ((*rng)() % 11) {
    case 0:
      return std::string("region(") + kNdvi + ", " + shared_box + ")";
    case 1:
      return std::string("region(") + kNdvi + ", " + GeoBox(rng) + ")";
    case 2:
      return "region(" + reproj + ", " + MercBox(rng) + ")";
    case 3:
      return std::string("region(rescale(") + kNdvi + ", 2.5, 1), " +
             GeoBox(rng) + ")";
    case 4:
      return "region(reproject(rescale(" + std::string(kNdvi) +
             ", 2.5, 1), \"mercator\"), " + MercBox(rng) + ")";
    case 5:
      return "region(goes.band1, " + Box(rng, 2.0, 1.5, -125.0, 24.0, -66.0,
                                         50.0) + ")";
    case 6:
      return std::string("vrange(region(") + kNdvi + ", " + GeoBox(rng) +
             "), 0, -0.2, 0.6)";
    case 7:
      return "region(reduce(goes.band2, 2), " + GeoBox(rng) + ")";
    case 8:
      return "region(magnify(goes.band1, 2), " + GeoBox(rng) + ")";
    case 9:
      return std::string("region(stretch(") + kNdvi + ", \"linear\"), " +
             GeoBox(rng) + ")";
    default:
      return kNdvi;
  }
}

void ExpectSameFrames(const std::string& query,
                      const std::vector<std::pair<int64_t, Raster>>& shared,
                      const std::vector<std::pair<int64_t, Raster>>& alone) {
  ASSERT_EQ(shared.size(), alone.size()) << query;
  for (size_t f = 0; f < shared.size(); ++f) {
    EXPECT_EQ(shared[f].first, alone[f].first) << query;
    const Raster& a = shared[f].second;
    const Raster& b = alone[f].second;
    auto diff = Raster::AbsDifference(a, b);
    ASSERT_TRUE(diff.ok()) << query << ": " << diff.status().ToString();
    EXPECT_EQ(*diff, 0.0) << query << " frame " << shared[f].first;
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.data().size() * sizeof(double)),
              0)
        << query << " frame " << shared[f].first;
  }
}

class SharedPlanDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SharedPlanDifferentialTest, FramesMatchUnsharedExecution) {
  DsmsOptions options;
  options.workers = GetParam();
  std::mt19937_64 rng(20061);
  const std::string shared_box = GeoBox(&rng);
  std::vector<std::string> texts;
  for (int i = 0; i < 18; ++i) texts.push_back(RandomQuery(&rng, shared_box));
  // The e2e mix's pairs: identical repeats of the same product.
  texts.push_back(texts[0]);
  texts.push_back(texts[1]);

  Rig rig(options);
  std::vector<std::unique_ptr<Frames>> got;
  for (const std::string& text : texts) {
    got.push_back(std::make_unique<Frames>());
    auto id = rig.server().RegisterQuery(text, got.back()->Callback());
    ASSERT_TRUE(id.ok()) << text << ": " << id.status().ToString();
  }
  // Twenty queries over far fewer distinct compute subplans.
  EXPECT_GT(rig.server().num_shared_nodes(), 0u);
  EXPECT_LT(rig.server().num_shared_nodes(), texts.size());
  GS_ASSERT_OK(rig.Ingest(0, 2));
  // Churn between frames: other queries come and go, each changing
  // the demand of the nodes the kept queries read.
  std::vector<QueryId> others;
  Frames ignored;
  for (int scan = 2; scan < 6; ++scan) {
    for (int k = 0; k < 3; ++k) {
      auto id = rig.server().RegisterQuery(RandomQuery(&rng, GeoBox(&rng)),
                                           ignored.Callback());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      others.push_back(*id);
    }
    if (scan % 2 == 1) {
      for (int k = 0; k < 4 && !others.empty(); ++k) {
        GS_ASSERT_OK(rig.server().UnregisterQuery(others.front()));
        others.erase(others.begin());
      }
    }
    GS_ASSERT_OK(rig.Ingest(scan, 1));
  }
  GS_ASSERT_OK(rig.server().EndAllStreams());

  for (size_t q = 0; q < texts.size(); ++q) {
    Rig alone_rig(options);
    Frames alone;
    auto id = alone_rig.server().RegisterQuery(texts[q], alone.Callback());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    GS_ASSERT_OK(alone_rig.Ingest(0, 6));
    GS_ASSERT_OK(alone_rig.server().EndAllStreams());
    ASSERT_FALSE(alone.frames.empty()) << texts[q];
    ExpectSameFrames(texts[q], got[q]->frames, alone.frames);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, SharedPlanDifferentialTest,
                         ::testing::Values(size_t{0}, size_t{2}));

TEST(SharedPlanTest, IdenticalAndBoxVariantQueriesShareOneNodePerOperator) {
  Rig rig(DsmsOptions{});
  Frames sink;
  const std::string reproj =
      std::string("reproject(") + kNdvi + ", \"mercator\")";
  std::vector<QueryId> ids;
  for (const std::string& text :
       {std::string("region(") + kNdvi + ", bbox(-110, 30, -90, 45))",
        std::string("region(") + kNdvi + ", bbox(-110, 30, -90, 45))",
        std::string("region(") + kNdvi + ", bbox(-100, 35, -95, 40))",
        "region(" + reproj + ", bbox(-12e6, 3.5e6, -10e6, 5e6))",
        "region(" + reproj + ", bbox(-11e6, 4e6, -10.5e6, 4.5e6))"}) {
    auto id = rig.server().RegisterQuery(text, sink.Callback());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // One NDVI node, one re-projection node; every restriction is a
  // cascade-tree entry of the node it reads, plus one entry per band
  // for the NDVI node's demand.
  EXPECT_EQ(rig.server().num_shared_nodes(), 2u);
  EXPECT_EQ(rig.server().num_restriction_entries(), 5u + 1u + 2u);

  auto text = rig.server().Explain(ids[3]);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("ndvi(goes.band2, goes.band1) subscribers=5 "
                       "consumers=4 demand=bbox("),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("reproject(ndvi(goes.band2, goes.band1), "
                       "\"mercator\", \"nearest\") subscribers=2 "
                       "consumers=2 demand=bbox(-1.2e+07, 3.5e+06, -1e+07, "
                       "5e+06)"),
            std::string::npos)
      << *text;
  // The NDVI demand is the union of its consumers' boxes.
  const std::string before = *text;
  GS_ASSERT_OK(rig.server().UnregisterQuery(ids[3]));
  text = rig.server().Explain(ids[4]);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("subscribers=1 consumers=1 demand=bbox(-1.1e+07, "
                       "4e+06, -1.05e+07, 4.5e+06)"),
            std::string::npos)
      << *text;
  EXPECT_NE(before, *text);

  GS_ASSERT_OK(rig.Ingest(0, 2));
  auto analyze = rig.server().ExplainAnalyze(ids[4]);
  ASSERT_TRUE(analyze.ok());
  EXPECT_NE(analyze->find("n1.op1.ndvi"), std::string::npos) << *analyze;
  EXPECT_NE(analyze->find("reproject"), std::string::npos) << *analyze;
  EXPECT_EQ(analyze->find("points_in=0 "), std::string::npos) << *analyze;

  for (QueryId id : {ids[0], ids[1], ids[2], ids[4]}) {
    GS_ASSERT_OK(rig.server().UnregisterQuery(id));
  }
  EXPECT_EQ(rig.server().num_shared_nodes(), 0u);
  EXPECT_EQ(rig.server().num_restriction_entries(), 0u);
}

TEST(SharedPlanTest, HiddenNodesAreNotStreams) {
  const std::string store_dir = ::testing::TempDir() + "gsshared-" +
                                std::to_string(::getpid());
  std::filesystem::remove_all(store_dir);
  DsmsOptions options;
  options.store_dir = store_dir;
  options.trace_sample_every = 1;
  {
    Rig rig(options);
    const size_t catalog_before = rig.server().catalog().streams().size();
    Frames sink;
    auto id = rig.server().RegisterQuery(
        std::string("region(reproject(") + kNdvi +
            ", \"mercator\"), bbox(-12e6, 3.5e6, -10e6, 5e6))",
        sink.Callback());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_EQ(rig.server().num_shared_nodes(), 2u);
    GS_ASSERT_OK(rig.Ingest(0, 2));
    EXPECT_EQ(sink.frames.size(), 2u);
    EXPECT_EQ(rig.server().catalog().streams().size(), catalog_before);
    // Nothing can name a node: not a query, not a producer.
    for (const std::string& name :
         {std::string("n1"), std::string("n1.in0"), std::string(kNdvi)}) {
      EXPECT_EQ(rig.server().ingest(name), nullptr) << name;
    }
    EXPECT_FALSE(rig.server().RegisterQuery("n1", sink.Callback()).ok());
    // Only the two bands are history; only they have freshness.
    const std::string metrics = rig.server().RenderMetrics();
    size_t freshness_series = 0;
    for (size_t at = metrics.find("geostreams_source_freshness_us{");
         at != std::string::npos;
         at = metrics.find("geostreams_source_freshness_us{", at + 1)) {
      ++freshness_series;
    }
    EXPECT_EQ(freshness_series, 2u) << metrics;
    for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
      const std::string name = entry.path().filename().string();
      EXPECT_TRUE(name.find("ndvi") == std::string::npos &&
                  name.find("reproj") == std::string::npos)
          << name;
    }
  }
  std::filesystem::remove_all(store_dir);
}

TEST(SharedPlanTest, ViewsAndCatchUpKeepPrivatePlans) {
  const std::string store_dir = ::testing::TempDir() + "gsprivate-" +
                                std::to_string(::getpid());
  std::filesystem::remove_all(store_dir);
  DsmsOptions options;
  options.store_dir = store_dir;
  {
    Rig rig(options);
    auto view = rig.server().RegisterDerivedStream("ndvi_view", kNdvi);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(rig.server().num_shared_nodes(), 0u);
    Frames live;
    auto on_view = rig.server().RegisterQuery(
        "region(ndvi_view, bbox(-110, 30, -90, 45))", live.Callback());
    ASSERT_TRUE(on_view.ok()) << on_view.status().ToString();
    GS_ASSERT_OK(rig.Ingest(0, 2));
    EXPECT_EQ(live.frames.size(), 2u);

    Frames replayed;
    CatchUpOptions since;
    since.since = 0;
    auto caught = rig.server().RegisterQuery(
        std::string("region(") + kNdvi + ", bbox(-110, 30, -90, 45))",
        replayed.Callback(), since);
    ASSERT_TRUE(caught.ok()) << caught.status().ToString();
    EXPECT_EQ(rig.server().num_shared_nodes(), 0u);
    EXPECT_EQ(replayed.frames.size(), 2u);
    GS_ASSERT_OK(rig.Ingest(2, 1));
    EXPECT_EQ(replayed.frames.size(), 3u);
    ExpectSameFrames("catch-up vs view", replayed.frames, live.frames);
    GS_ASSERT_OK(rig.server().UnregisterQuery(*caught));
  }
  std::filesystem::remove_all(store_dir);
}

/// Scrapes the registry and counts exposed samples.
size_t SeriesCount(DsmsServer& server) {
  const std::string text = server.RenderMetrics();
  size_t n = 0;
  for (const std::string& line : Split(text, '\n')) {
    if (!line.empty() && line[0] != '#') ++n;
  }
  return n;
}

TEST(SharedPlanLifecycleTest, ChurnReturnsEveryCountToBaseline) {
  DsmsOptions options;
  options.workers = 2;
  Rig rig(options);
  const std::string reproj =
      std::string("reproject(") + kNdvi + ", \"mercator\")";
  const std::vector<std::string> texts = {
      std::string("region(") + kNdvi + ", bbox(-110, 30, -90, 45))",
      "region(" + reproj + ", bbox(-12e6, 3.5e6, -10e6, 5e6))",
      std::string("region(rescale(") + kNdvi + ", 2, 1), bbox(-100, 30, "
                                               "-90, 40))",
  };
  Frames sink;
  // Warm-up: kind-labeled operator series are created once and kept.
  for (const std::string& text : texts) {
    auto id = rig.server().RegisterQuery(text, sink.Callback());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    GS_ASSERT_OK(rig.server().UnregisterQuery(*id));
  }
  GS_ASSERT_OK(rig.Ingest(0, 1));
  const size_t nodes = rig.server().num_shared_nodes();
  const size_t pipelines = rig.server().SchedulerStats().size();
  const size_t catalog = rig.server().catalog().streams().size();
  const size_t entries = rig.server().num_restriction_entries();
  const uint64_t memory = rig.server().memory().TotalBytes();
  const size_t series = SeriesCount(rig.server());
  EXPECT_EQ(nodes, 0u);
  EXPECT_EQ(entries, 0u);

  // Ingest keeps running on its own thread through every cycle.
  std::atomic<bool> stop{false};
  std::thread ingest([&] {
    StreamGenerator gen(TwoBandConfig(), ScanSchedule::GoesRoutine());
    GS_EXPECT_OK(gen.Init());
    std::vector<EventSink*> sinks = {rig.server().ingest("goes.band2"),
                                     rig.server().ingest("goes.band1")};
    for (int64_t scan = 1; !stop.load(); ++scan) {
      GS_EXPECT_OK(gen.GenerateScans(scan, 1, sinks));
    }
  });
  for (int cycle = 0; cycle < 1000; ++cycle) {
    const std::string& text = texts[static_cast<size_t>(cycle) % texts.size()];
    auto a = rig.server().RegisterQuery(text, sink.Callback());
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = rig.server().RegisterQuery(texts[0], sink.Callback());
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    GS_ASSERT_OK(rig.server().UnregisterQuery(*a));
    GS_ASSERT_OK(rig.server().UnregisterQuery(*b));
  }
  stop = true;
  ingest.join();
  GS_ASSERT_OK(rig.server().Flush());

  EXPECT_EQ(rig.server().num_shared_nodes(), nodes);
  EXPECT_EQ(rig.server().SchedulerStats().size(), pipelines);
  EXPECT_EQ(rig.server().catalog().streams().size(), catalog);
  EXPECT_EQ(rig.server().num_restriction_entries(), entries);
  EXPECT_EQ(rig.server().memory().TotalBytes(), memory);
  EXPECT_EQ(SeriesCount(rig.server()), series);
}

}  // namespace
}  // namespace geostreams
