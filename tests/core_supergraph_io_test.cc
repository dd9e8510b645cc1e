#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/supergraph_io.h"
#include "core/supergraph_miner.h"
#include "netgen/grid_generator.h"
#include "network/road_graph.h"
#include "traffic/congestion_field.h"

namespace roadpart {
namespace {

Supergraph MineOne(uint64_t seed) {
  GridOptions grid;
  grid.rows = 8;
  grid.cols = 8;
  grid.seed = seed;
  RoadNetwork net = GenerateGridNetwork(grid).value();
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 3;
  field_opt.voronoi_tiling = true;
  field_opt.seed = seed + 9;
  CongestionField field(net, field_opt);
  (void)net.SetDensities(field.Densities());
  RoadGraph rg = RoadGraph::FromNetwork(net);
  SupergraphMinerOptions options;
  options.min_supernodes = 10;
  return MineSupergraph(rg, options).value();
}

TEST(SupergraphIoTest, RoundTripPreservesEverything) {
  Supergraph sg = MineOne(3);
  std::string path = testing::TempDir() + "/sg_roundtrip.txt";
  ASSERT_TRUE(SaveSupergraph(sg, path).ok());
  auto loaded = LoadSupergraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_supernodes(), sg.num_supernodes());
  EXPECT_EQ(loaded->num_road_nodes(), sg.num_road_nodes());
  for (int s = 0; s < sg.num_supernodes(); ++s) {
    EXPECT_EQ(loaded->supernode(s).members, sg.supernode(s).members);
    EXPECT_NEAR(loaded->supernode(s).feature, sg.supernode(s).feature,
                1e-12);
  }
  EXPECT_EQ(loaded->links().num_edges(), sg.links().num_edges());
  for (int p = 0; p < sg.links().num_nodes(); ++p) {
    auto nbrs = sg.links().Neighbors(p);
    auto wts = sg.links().NeighborWeights(p);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NEAR(loaded->links().EdgeWeight(p, nbrs[i]), wts[i], 1e-12);
    }
  }
  std::remove(path.c_str());
}

TEST(SupergraphIoTest, NodeMappingSurvives) {
  Supergraph sg = MineOne(5);
  std::string path = testing::TempDir() + "/sg_mapping.txt";
  ASSERT_TRUE(SaveSupergraph(sg, path).ok());
  Supergraph loaded = LoadSupergraph(path).value();
  for (int v = 0; v < sg.num_road_nodes(); ++v) {
    EXPECT_EQ(loaded.SupernodeOf(v), sg.SupernodeOf(v));
  }
  std::remove(path.c_str());
}

TEST(SupergraphIoTest, RejectsCorruptFiles) {
  auto write = [](const std::string& name, const std::string& content) {
    std::string path = testing::TempDir() + "/" + name;
    std::ofstream out(path);
    out << content;
    return path;
  };
  // Truncated supernodes.
  std::string p1 = write("sg_bad1.txt", "G 4 2\n0.5 2 0 1\n");
  EXPECT_FALSE(LoadSupergraph(p1).ok());
  // Member out of range.
  std::string p2 = write("sg_bad2.txt",
                         "G 2 1\n0.5 2 0 7\nL 0\n");
  EXPECT_FALSE(LoadSupergraph(p2).ok());
  // Overlapping members.
  std::string p3 = write("sg_bad3.txt",
                         "G 2 2\n0.5 2 0 1\n0.7 1 1\nL 1\n0 1 0.5\n");
  EXPECT_FALSE(LoadSupergraph(p3).ok());
  // Garbage header.
  std::string p4 = write("sg_bad4.txt", "whatever\n");
  EXPECT_FALSE(LoadSupergraph(p4).ok());
  // Member count beyond what any vector can hold, with no members present.
  std::string p5 = write("sg_bad5.txt",
                         "G 1 1\n0.5 9000000000000000000 0\nL 0\n");
  EXPECT_FALSE(LoadSupergraph(p5).ok());
  EXPECT_FALSE(LoadSupergraph("/no/such/sg.txt").ok());
  for (const auto& p : {p1, p2, p3, p4, p5}) std::remove(p.c_str());
}

}  // namespace
}  // namespace roadpart
