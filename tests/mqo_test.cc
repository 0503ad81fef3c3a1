#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/math_util.h"
#include "mqo/cascade_tree.h"
#include "mqo/filter_bank.h"
#include "mqo/grid_index.h"
#include "mqo/shared_restriction.h"
#include "tests/test_util.h"

namespace geostreams {
namespace {

using testing_util::LatLonLattice;
using testing_util::PushFrame;

const BoundingBox kExtent(0.0, 0.0, 1024.0, 1024.0);

std::vector<QueryId> SortedStab(const RegionIndex& index, double x,
                                double y) {
  std::vector<QueryId> out;
  index.Stab(x, y, &out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FilterBankTest, InsertStabRemove) {
  FilterBank bank;
  GS_ASSERT_OK(bank.Insert(1, BoundingBox(0, 0, 10, 10)));
  GS_ASSERT_OK(bank.Insert(2, BoundingBox(5, 5, 15, 15)));
  EXPECT_EQ(bank.size(), 2u);
  EXPECT_EQ(SortedStab(bank, 7, 7), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(SortedStab(bank, 1, 1), (std::vector<QueryId>{1}));
  EXPECT_EQ(SortedStab(bank, 20, 20), (std::vector<QueryId>{}));
  GS_ASSERT_OK(bank.Remove(1));
  EXPECT_EQ(SortedStab(bank, 7, 7), (std::vector<QueryId>{2}));
  EXPECT_EQ(bank.Remove(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(bank.Insert(2, BoundingBox()).code(),
            StatusCode::kAlreadyExists);
}

TEST(CascadeTreeTest, BasicStab) {
  CascadeTree tree(kExtent, 8);
  GS_ASSERT_OK(tree.Insert(1, BoundingBox(0, 0, 512, 512)));
  GS_ASSERT_OK(tree.Insert(2, BoundingBox(256, 256, 768, 768)));
  EXPECT_EQ(SortedStab(tree, 300, 300), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(SortedStab(tree, 100, 100), (std::vector<QueryId>{1}));
  EXPECT_EQ(SortedStab(tree, 700, 700), (std::vector<QueryId>{2}));
  EXPECT_EQ(SortedStab(tree, 900, 100), (std::vector<QueryId>{}));
}

TEST(CascadeTreeTest, PointsOutsideExtentStabNothing) {
  CascadeTree tree(kExtent);
  GS_ASSERT_OK(tree.Insert(1, BoundingBox(-100, -100, 2000, 2000)));
  EXPECT_EQ(SortedStab(tree, 512, 512), (std::vector<QueryId>{1}));
  EXPECT_EQ(SortedStab(tree, -50, -50), (std::vector<QueryId>{}));
}

TEST(CascadeTreeTest, RemovePrunesNodes) {
  CascadeTree tree(kExtent, 8);
  const size_t base_nodes = tree.node_count();
  GS_ASSERT_OK(tree.Insert(1, BoundingBox(10, 10, 20, 20)));
  EXPECT_GT(tree.node_count(), base_nodes);
  GS_ASSERT_OK(tree.Remove(1));
  EXPECT_EQ(tree.node_count(), base_nodes);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(SortedStab(tree, 15, 15), (std::vector<QueryId>{}));
}

TEST(CascadeTreeTest, DuplicateAndMissingIds) {
  CascadeTree tree(kExtent);
  GS_ASSERT_OK(tree.Insert(1, BoundingBox(0, 0, 10, 10)));
  EXPECT_EQ(tree.Insert(1, BoundingBox(0, 0, 5, 5)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(tree.Remove(9).code(), StatusCode::kNotFound);
}

TEST(GridIndexTest, BasicStab) {
  GridIndex grid(kExtent, 16, 16);
  GS_ASSERT_OK(grid.Insert(1, BoundingBox(0, 0, 100, 100)));
  GS_ASSERT_OK(grid.Insert(2, BoundingBox(50, 50, 200, 200)));
  EXPECT_EQ(SortedStab(grid, 75, 75), (std::vector<QueryId>{1, 2}));
  EXPECT_EQ(SortedStab(grid, 150, 150), (std::vector<QueryId>{2}));
  GS_ASSERT_OK(grid.Remove(2));
  EXPECT_EQ(SortedStab(grid, 150, 150), (std::vector<QueryId>{}));
}

// Property: all three index structures agree with each other on
// randomized rectangle sets and probe points.
class IndexEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalence, AllStructuresAgree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 7919;
  FilterBank bank;
  CascadeTree tree(kExtent, 7);
  GridIndex grid(kExtent, 32, 32);

  // Random rectangles, some tiny, some huge, some outside the extent.
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    const double x0 = HashToUnit(seed + i * 5 + 0) * 1400.0 - 200.0;
    const double y0 = HashToUnit(seed + i * 5 + 1) * 1400.0 - 200.0;
    const double w = HashToUnit(seed + i * 5 + 2) *
                     (i % 3 == 0 ? 1000.0 : 60.0);
    const double h = HashToUnit(seed + i * 5 + 3) *
                     (i % 3 == 0 ? 1000.0 : 60.0);
    const BoundingBox box(x0, y0, x0 + w, y0 + h);
    GS_ASSERT_OK(bank.Insert(i, box));
    GS_ASSERT_OK(tree.Insert(i, box));
    GS_ASSERT_OK(grid.Insert(i, box));
  }
  // Remove a third of them again (dynamic workload).
  for (int i = 0; i < n; i += 3) {
    GS_ASSERT_OK(bank.Remove(i));
    GS_ASSERT_OK(tree.Remove(i));
    GS_ASSERT_OK(grid.Remove(i));
  }

  for (int p = 0; p < 500; ++p) {
    const double x = HashToUnit(seed * 31 + p * 2) * 1024.0;
    const double y = HashToUnit(seed * 31 + p * 2 + 1) * 1024.0;
    const auto expected = SortedStab(bank, x, y);
    EXPECT_EQ(SortedStab(tree, x, y), expected)
        << "cascade tree at (" << x << ", " << y << ")";
    EXPECT_EQ(SortedStab(grid, x, y), expected)
        << "grid index at (" << x << ", " << y << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexEquivalence, ::testing::Range(1, 9));

// --- SharedRestrictionOp ------------------------------------------------------

TEST(SharedRestrictionTest, RoutesPointsToMatchingQueries) {
  GridLattice lattice = LatLonLattice(10, 8);
  auto op = SharedRestrictionOp(
      std::make_unique<CascadeTree>(lattice.Extent(), 8));
  CollectingSink west, east, nothing;
  // West: columns 0..1; East: columns 8..9; nothing: far away.
  GS_ASSERT_OK(op.RegisterQuery(
      1, MakeBBoxRegion(-125.0, 40.0, -123.9, 45.0), &west));
  GS_ASSERT_OK(op.RegisterQuery(
      2, MakeBBoxRegion(-121.1, 40.0, -120.0, 45.0), &east));
  GS_ASSERT_OK(op.RegisterQuery(3, MakeBBoxRegion(0.0, 0.0, 1.0, 1.0),
                                &nothing));
  GS_ASSERT_OK(PushFrame(&op, lattice, 0));
  EXPECT_EQ(west.TotalPoints(), 2u * 8u);
  EXPECT_EQ(east.TotalPoints(), 2u * 8u);
  EXPECT_EQ(nothing.TotalPoints(), 0u);
  // Frame metadata reaches every subscriber.
  EXPECT_EQ(west.NumFrames(), 1u);
  EXPECT_EQ(nothing.NumFrames(), 1u);
}

TEST(SharedRestrictionTest, ExactTestForNonBBoxRegions) {
  GridLattice lattice = LatLonLattice(10, 8);
  auto op = SharedRestrictionOp(
      std::make_unique<CascadeTree>(lattice.Extent(), 8));
  CollectingSink sink;
  // A disk whose bbox covers more cells than the disk itself.
  auto disk = ConstraintRegion::Disk(-122.5, 42.75, 0.6);
  GS_ASSERT_OK(op.RegisterQuery(1, disk, &sink));
  GS_ASSERT_OK(PushFrame(&op, lattice, 0));
  ASSERT_GT(sink.TotalPoints(), 0u);
  for (const auto& [key, v] : testing_util::CollectPoints(sink.events())) {
    const double x = lattice.CellX(std::get<0>(key));
    const double y = lattice.CellY(std::get<1>(key));
    EXPECT_TRUE(disk->Contains(x, y));
  }
}

TEST(SharedRestrictionTest, UnregisterStopsDelivery) {
  GridLattice lattice = LatLonLattice(4, 4);
  auto op = SharedRestrictionOp(
      std::make_unique<FilterBank>());
  CollectingSink sink;
  GS_ASSERT_OK(op.RegisterQuery(1, AllRegion::Instance(), &sink));
  GS_ASSERT_OK(PushFrame(&op, lattice, 0));
  const uint64_t after_first = sink.TotalPoints();
  EXPECT_EQ(after_first, 16u);
  GS_ASSERT_OK(op.UnregisterQuery(1));
  GS_ASSERT_OK(PushFrame(&op, lattice, 1));
  EXPECT_EQ(sink.TotalPoints(), after_first);
  EXPECT_EQ(op.UnregisterQuery(1).code(), StatusCode::kNotFound);
}

/// Fails the first point batch it is handed, collects the rest.
class FailFirstBatchSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    if (event.kind == EventKind::kPointBatch && !failed_) {
      failed_ = true;
      return Status::Internal("subscriber down");
    }
    return collected_.Consume(event);
  }
  const CollectingSink& collected() const { return collected_; }

 private:
  bool failed_ = false;
  CollectingSink collected_;
};

TEST(SharedRestrictionTest, FailingSubscriberDoesNotStallOthers) {
  // Subscriber 1 fails its first batch. Subscriber 2 (iterated after
  // it) must still get every row as its own batch under its own frame
  // id, not hold row 0 back and receive it glued to row 1.
  GridLattice lattice = LatLonLattice(4, 2);
  auto op = SharedRestrictionOp(std::make_unique<FilterBank>());
  FailFirstBatchSink failing;
  CollectingSink healthy;
  GS_ASSERT_OK(op.RegisterQuery(1, AllRegion::Instance(), &failing));
  GS_ASSERT_OK(op.RegisterQuery(2, AllRegion::Instance(), &healthy));
  FrameInfo info;
  info.frame_id = 3;
  info.lattice = lattice;
  info.expected_points = lattice.num_cells();
  GS_ASSERT_OK(op.Consume(StreamEvent::FrameBegin(info)));
  for (int32_t row = 0; row < 2; ++row) {
    auto batch = std::make_shared<PointBatch>();
    batch->frame_id = 3;
    batch->band_count = 1;
    for (int32_t col = 0; col < 4; ++col) {
      batch->Append1(col, row, 3, testing_util::TestValue(3, col, row));
    }
    const Status st = op.Consume(StreamEvent::Batch(std::move(batch)));
    EXPECT_EQ(st.ok(), row != 0) << st.ToString();
  }
  GS_ASSERT_OK(op.Consume(StreamEvent::FrameEnd(info)));

  std::vector<size_t> batch_sizes;
  for (const StreamEvent& e : healthy.events()) {
    if (e.kind != EventKind::kPointBatch) continue;
    batch_sizes.push_back(e.batch->size());
    EXPECT_EQ(e.batch->frame_id, 3);
  }
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{4, 4}));
  EXPECT_EQ(healthy.NumFrames(), 1u);
  // The failed subscriber lost only its failed row.
  EXPECT_EQ(failing.collected().TotalPoints(), 4u);
}

TEST(SharedRestrictionTest, BatchesPreserveValuesAndTimestamps) {
  GridLattice lattice = LatLonLattice(6, 4);
  auto op = SharedRestrictionOp(
      std::make_unique<GridIndex>(lattice.Extent(), 8, 8));
  CollectingSink sink;
  GS_ASSERT_OK(op.RegisterQuery(7, AllRegion::Instance(), &sink));
  GS_ASSERT_OK(PushFrame(&op, lattice, 5));
  auto points = testing_util::CollectPoints(sink.events());
  ASSERT_EQ(points.size(), 24u);
  EXPECT_DOUBLE_EQ(points.at({3, 2, 5}), testing_util::TestValue(5, 3, 2));
}

}  // namespace
}  // namespace geostreams
