#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "network/network_io.h"
#include "network/road_graph.h"
#include "network/road_network.h"

namespace roadpart {
namespace {

// A 4-intersection diamond:
//   0 --s0--> 1, 1 --s1--> 0 (two-way road)
//   1 --s2--> 2
//   2 --s3--> 3
//   3 --s4--> 0
RoadNetwork Diamond() {
  std::vector<Intersection> pts = {
      {{0.0, 0.0}}, {{100.0, 0.0}}, {{100.0, 100.0}}, {{0.0, 100.0}}};
  std::vector<RoadSegment> segs = {{0, 1, 100.0, 0.1},
                                   {1, 0, 100.0, 0.2},
                                   {1, 2, 100.0, 0.3},
                                   {2, 3, 100.0, 0.4},
                                   {3, 0, 100.0, 0.5}};
  return RoadNetwork::Create(std::move(pts), std::move(segs)).value();
}

TEST(RoadNetworkTest, CreateValidates) {
  std::vector<Intersection> pts = {{{0.0, 0.0}}, {{1.0, 0.0}}};
  // Endpoint out of range.
  EXPECT_FALSE(RoadNetwork::Create(pts, {{0, 2, 1.0, 0.0}}).ok());
  // Self loop.
  EXPECT_FALSE(RoadNetwork::Create(pts, {{1, 1, 1.0, 0.0}}).ok());
  // Non-positive length.
  EXPECT_FALSE(RoadNetwork::Create(pts, {{0, 1, 0.0, 0.0}}).ok());
  // Negative density.
  EXPECT_FALSE(RoadNetwork::Create(pts, {{0, 1, 1.0, -0.5}}).ok());
  // Valid.
  EXPECT_TRUE(RoadNetwork::Create(pts, {{0, 1, 1.0, 0.5}}).ok());
}

TEST(RoadNetworkTest, IncidenceLists) {
  RoadNetwork net = Diamond();
  EXPECT_EQ(net.num_intersections(), 4);
  EXPECT_EQ(net.num_segments(), 5);
  // Intersection 1 touches segments 0, 1, 2.
  auto at1 = net.SegmentsAt(1);
  EXPECT_EQ(at1.size(), 3u);
  // Outgoing from 1: segments 1 (1->0) and 2 (1->2).
  auto from1 = net.SegmentsFrom(1);
  EXPECT_EQ(from1.size(), 2u);
}

TEST(RoadNetworkTest, DensityRoundTrip) {
  RoadNetwork net = Diamond();
  std::vector<double> d = {1.0, 2.0, 3.0, 4.0, 5.0};
  ASSERT_TRUE(net.SetDensities(d).ok());
  EXPECT_EQ(net.Densities(), d);
  EXPECT_DOUBLE_EQ(net.density(2), 3.0);
  net.set_density(2, 9.0);
  EXPECT_DOUBLE_EQ(net.density(2), 9.0);
}

TEST(RoadNetworkTest, SetDensitiesValidates) {
  RoadNetwork net = Diamond();
  EXPECT_FALSE(net.SetDensities({1.0, 2.0}).ok());            // wrong size
  EXPECT_FALSE(net.SetDensities({1, 1, 1, 1, -1}).ok());      // negative
}

TEST(RoadNetworkTest, BoundsAndLength) {
  RoadNetwork net = Diamond();
  BoundingBox box = net.Bounds();
  EXPECT_DOUBLE_EQ(box.WidthMetres(), 100.0);
  EXPECT_DOUBLE_EQ(box.HeightMetres(), 100.0);
  EXPECT_DOUBLE_EQ(net.TotalLengthMetres(), 500.0);
}

TEST(RoadGraphTest, DualConstruction) {
  RoadNetwork net = Diamond();
  CsrGraph dual = BuildDualAdjacency(net);
  EXPECT_EQ(dual.num_nodes(), 5);
  // Segments 0 (0->1) and 1 (1->0) share BOTH intersections: single edge.
  EXPECT_TRUE(dual.HasEdge(0, 1));
  EXPECT_DOUBLE_EQ(dual.EdgeWeight(0, 1), 1.0);
  // Segment 0 (0->1) and segment 2 (1->2) share intersection 1.
  EXPECT_TRUE(dual.HasEdge(0, 2));
  // Segment 0 (0->1) and segment 3 (2->3) share nothing.
  EXPECT_FALSE(dual.HasEdge(0, 3));
  // Segment 0 and 4 share intersection 0.
  EXPECT_TRUE(dual.HasEdge(0, 4));
}

TEST(RoadGraphTest, StarBecomesClique) {
  // 4 roads all meeting at intersection 0: the dual is K4.
  std::vector<Intersection> pts = {
      {{0.0, 0.0}}, {{1.0, 0.0}}, {{0.0, 1.0}}, {{-1.0, 0.0}}, {{0.0, -1.0}}};
  std::vector<RoadSegment> segs = {{0, 1, 1.0, 0.0},
                                   {0, 2, 1.0, 0.0},
                                   {0, 3, 1.0, 0.0},
                                   {0, 4, 1.0, 0.0}};
  RoadNetwork net = RoadNetwork::Create(pts, segs).value();
  CsrGraph dual = BuildDualAdjacency(net);
  EXPECT_EQ(dual.num_edges(), 6);  // C(4,2)
  for (int i = 0; i < 4; ++i) EXPECT_EQ(dual.Degree(i), 3);
}

TEST(RoadGraphTest, LinearStaysLinear) {
  // Chain of 3 one-way roads: dual is a path.
  std::vector<Intersection> pts = {
      {{0.0, 0.0}}, {{1.0, 0.0}}, {{2.0, 0.0}}, {{3.0, 0.0}}};
  std::vector<RoadSegment> segs = {
      {0, 1, 1.0, 0.0}, {1, 2, 1.0, 0.0}, {2, 3, 1.0, 0.0}};
  RoadNetwork net = RoadNetwork::Create(pts, segs).value();
  CsrGraph dual = BuildDualAdjacency(net);
  EXPECT_EQ(dual.num_edges(), 2);
  EXPECT_TRUE(dual.HasEdge(0, 1));
  EXPECT_TRUE(dual.HasEdge(1, 2));
  EXPECT_FALSE(dual.HasEdge(0, 2));
}

TEST(RoadGraphTest, FeaturesSnapshotDensities) {
  RoadNetwork net = Diamond();
  RoadGraph rg = RoadGraph::FromNetwork(net);
  EXPECT_EQ(rg.num_nodes(), 5);
  EXPECT_DOUBLE_EQ(rg.features()[4], 0.5);
  EXPECT_TRUE(rg.SetFeatures({9, 9, 9, 9, 9}).ok());
  EXPECT_DOUBLE_EQ(rg.features()[0], 9.0);
  EXPECT_FALSE(rg.SetFeatures({1.0}).ok());
}

TEST(RoadGraphTest, FromPartsValidates) {
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1, 1.0}}).value();
  EXPECT_TRUE(RoadGraph::FromParts(g, {0.1, 0.2}).ok());
  CsrGraph g2 = CsrGraph::FromEdges(2, {{0, 1, 1.0}}).value();
  EXPECT_FALSE(RoadGraph::FromParts(g2, {0.1}).ok());
}

TEST(GeometryTest, DistanceAndLerp) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  Point mid = Lerp({0, 0}, {10, 20}, 0.5);
  EXPECT_DOUBLE_EQ(mid.x, 5.0);
  EXPECT_DOUBLE_EQ(mid.y, 10.0);
}

TEST(GeometryTest, BoundingBoxArea) {
  BoundingBox box{{0, 0}, {1609.344, 1609.344}};  // one square mile
  EXPECT_NEAR(box.AreaSqMiles(), 1.0, 1e-9);
}

TEST(NetworkIoTest, SaveLoadRoundTrip) {
  RoadNetwork net = Diamond();
  std::string path = testing::TempDir() + "/roadnet_roundtrip.txt";
  ASSERT_TRUE(SaveRoadNetwork(net, path).ok());
  auto loaded = LoadRoadNetwork(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_intersections(), net.num_intersections());
  EXPECT_EQ(loaded->num_segments(), net.num_segments());
  for (int i = 0; i < net.num_segments(); ++i) {
    EXPECT_EQ(loaded->segment(i).from, net.segment(i).from);
    EXPECT_EQ(loaded->segment(i).to, net.segment(i).to);
    EXPECT_NEAR(loaded->segment(i).density, net.segment(i).density, 1e-9);
  }
  std::remove(path.c_str());
}

TEST(NetworkIoTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(LoadRoadNetwork("/nonexistent/path/net.txt").ok());
}

TEST(NetworkIoTest, LoadRejectsHugeHeaderCounts) {
  // Header counts far beyond the lines present must end in a typed error
  // without sizing anything from the count.
  const std::string path = testing::TempDir() + "/roadnet_huge_counts.txt";
  for (const char* content :
       {"I 2000000000\n0 0\n", "I 1\n0 0\nS 2000000000\n0 0 1 0.1\n"}) {
    {
      std::ofstream out(path);
      out << content;
    }
    auto loaded = LoadRoadNetwork(path);
    ASSERT_FALSE(loaded.ok()) << content;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << content;
  }
  std::remove(path.c_str());
}

TEST(NetworkIoTest, DensitiesRoundTrip) {
  std::string path = testing::TempDir() + "/densities_roundtrip.txt";
  std::vector<double> d = {0.0, 0.125, 3.5};
  ASSERT_TRUE(SaveDensities(d, path).ok());
  auto loaded = LoadDensities(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 3u);
  for (size_t i = 0; i < d.size(); ++i) EXPECT_NEAR((*loaded)[i], d[i], 1e-9);
  std::remove(path.c_str());
}

TEST(NetworkIoTest, PartitionCsvWritten) {
  std::string path = testing::TempDir() + "/partition.csv";
  ASSERT_TRUE(SavePartitionCsv({0, 1, 1}, path).ok());
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64];
  // Line 1 is the durable-artifact envelope header, line 2 the CSV header.
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "#! rpaf partition-csv v1\n");
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "segment_id,partition_id\n");
  std::fclose(f);
  // The envelope round-trips through the matching loader.
  auto loaded = LoadPartitionCsv(path, 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, (std::vector<int>{0, 1, 1}));
  std::remove(path.c_str());
}

TEST(NetworkIoTest, PartitionCsvRejectsOutOfRangeLabels) {
  // Legacy (envelope-less) files: labels that a 32-bit narrowing would wrap
  // (4294967297 -> 1) or that index past any partition table, and a negative
  // label, are each typed OutOfRange naming the segment.
  const std::string path = testing::TempDir() + "/partition_labels.csv";
  for (const char* label : {"4294967297", "2147483647", "3", "-1"}) {
    {
      std::ofstream out(path);
      out << "segment_id,partition_id\n0,0\n1," << label << "\n2,0\n";
    }
    auto loaded = LoadPartitionCsv(path, 3);
    ASSERT_FALSE(loaded.ok()) << label;
    EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange) << label;
    EXPECT_NE(loaded.status().message().find("segment 1"), std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace roadpart
