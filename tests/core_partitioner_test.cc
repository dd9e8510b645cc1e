#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/durable_io.h"
#include "core/partitioner.h"
#include "core/supergraph_miner.h"
#include "metrics/partition_metrics.h"
#include "metrics/validity.h"
#include "netgen/grid_generator.h"
#include "traffic/congestion_field.h"

namespace roadpart {
namespace {

RoadNetwork HotspotNetwork(uint64_t seed = 1) {
  GridOptions grid;
  grid.rows = 10;
  grid.cols = 10;
  grid.seed = seed;
  RoadNetwork net = GenerateGridNetwork(grid).value();
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 3;
  field_opt.seed = seed + 100;
  CongestionField field(net, field_opt);
  (void)net.SetDensities(field.Densities());
  return net;
}

TEST(SchemeNameTest, AllNamed) {
  EXPECT_STREQ(SchemeName(Scheme::kAG), "AG");
  EXPECT_STREQ(SchemeName(Scheme::kASG), "ASG");
  EXPECT_STREQ(SchemeName(Scheme::kNG), "NG");
  EXPECT_STREQ(SchemeName(Scheme::kNSG), "NSG");
  EXPECT_STREQ(SchemeName(Scheme::kJiGeroliminis), "JiGeroliminis");
  for (Scheme s : {Scheme::kAG, Scheme::kASG, Scheme::kNG, Scheme::kNSG,
                   Scheme::kJiGeroliminis}) {
    auto parsed = ParseScheme(SchemeName(s));
    ASSERT_TRUE(parsed.ok()) << SchemeName(s);
    EXPECT_EQ(*parsed, s);
  }
  auto jig = ParseScheme("JIG");
  ASSERT_TRUE(jig.ok());
  EXPECT_EQ(*jig, Scheme::kJiGeroliminis);
  auto unknown = ParseScheme("asg");
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unknown.status().message(), "unknown scheme 'asg'");
}

class PartitionerSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(PartitionerSchemeTest, ProducesValidKPartitions) {
  RoadNetwork net = HotspotNetwork();
  PartitionerOptions options;
  options.scheme = GetParam();
  options.k = 4;
  options.seed = 7;
  Partitioner partitioner(options);
  auto outcome = partitioner.PartitionNetwork(net);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->k_final, 4);
  EXPECT_EQ(outcome->assignment.size(),
            static_cast<size_t>(net.num_segments()));
  RoadGraph rg = RoadGraph::FromNetwork(net);
  EXPECT_TRUE(CheckPartitionValidity(rg.adjacency(), outcome->assignment).ok());
}

TEST_P(PartitionerSchemeTest, TimingsPopulated) {
  RoadNetwork net = HotspotNetwork(2);
  PartitionerOptions options;
  options.scheme = GetParam();
  options.k = 3;
  Partitioner partitioner(options);
  auto outcome = partitioner.PartitionNetwork(net);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->module1_seconds, 0.0);
  EXPECT_GE(outcome->module3_seconds, 0.0);
  bool supergraph_scheme =
      GetParam() == Scheme::kASG || GetParam() == Scheme::kNSG;
  if (supergraph_scheme) {
    EXPECT_GT(outcome->num_supernodes, 0);
    EXPECT_GE(outcome->module2_seconds, 0.0);
  } else {
    EXPECT_EQ(outcome->num_supernodes, 0);
    EXPECT_EQ(outcome->module2_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, PartitionerSchemeTest,
                         ::testing::Values(Scheme::kAG, Scheme::kASG,
                                           Scheme::kNG, Scheme::kNSG,
                                           Scheme::kJiGeroliminis),
                         [](const auto& info) {
                           return std::string(SchemeName(info.param));
                         });

TEST(PartitionerTest, SupergraphSchemesReduceProblemSize) {
  RoadNetwork net = HotspotNetwork(3);
  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = 4;
  Partitioner partitioner(options);
  auto outcome = partitioner.PartitionNetwork(net);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->num_supernodes, 0);
  EXPECT_LT(outcome->num_supernodes, net.num_segments());
  EXPECT_GT(outcome->mining_report.chosen_kappa, 1);
}

TEST(PartitionerTest, SeedsChangeOnlyRandomizedParts) {
  RoadNetwork net = HotspotNetwork(4);
  RoadGraph rg = RoadGraph::FromNetwork(net);
  PartitionerOptions a;
  a.scheme = Scheme::kASG;
  a.k = 4;
  a.seed = 1;
  PartitionerOptions b = a;
  auto out_a1 = Partitioner(a).PartitionRoadGraph(rg);
  auto out_a2 = Partitioner(a).PartitionRoadGraph(rg);
  ASSERT_TRUE(out_a1.ok() && out_a2.ok());
  // Same seed: identical assignment.
  EXPECT_EQ(out_a1->assignment, out_a2->assignment);
  (void)b;
}

TEST(PartitionerTest, StabilityOptionFlowsThrough) {
  RoadNetwork net = HotspotNetwork(5);
  PartitionerOptions loose;
  loose.scheme = Scheme::kASG;
  loose.k = 3;
  loose.miner.stability.threshold = 0.0;
  PartitionerOptions strict = loose;
  strict.miner.stability.threshold = 0.999;
  auto out_loose = Partitioner(loose).PartitionNetwork(net);
  auto out_strict = Partitioner(strict).PartitionNetwork(net);
  ASSERT_TRUE(out_loose.ok() && out_strict.ok());
  EXPECT_GE(out_strict->num_supernodes, out_loose->num_supernodes);
}

TEST(PartitionerTest, InvalidKPropagates) {
  RoadNetwork net = HotspotNetwork(6);
  PartitionerOptions options;
  options.scheme = Scheme::kAG;
  options.k = net.num_segments() + 1;
  auto outcome = Partitioner(options).PartitionNetwork(net);
  EXPECT_FALSE(outcome.ok());
}

TEST(PartitionerTest, PartitionsFollowCongestionStructure) {
  // With strong hotspots, the ASG partitioning must beat a size-balanced
  // arbitrary split on the ANS metric.
  RoadNetwork net = HotspotNetwork(7);
  RoadGraph rg = RoadGraph::FromNetwork(net);
  PartitionerOptions options;
  options.scheme = Scheme::kASG;
  options.k = 4;
  auto outcome = Partitioner(options).PartitionRoadGraph(rg);
  ASSERT_TRUE(outcome.ok());
  double ans_cut =
      AverageNcutSilhouette(rg.adjacency(), rg.features(), outcome->assignment)
          .value();
  // Stripes of equal size as the arbitrary baseline.
  std::vector<int> stripes(rg.num_nodes());
  for (int v = 0; v < rg.num_nodes(); ++v) {
    stripes[v] = v * 4 / rg.num_nodes();
  }
  double ans_stripes =
      AverageNcutSilhouette(rg.adjacency(), rg.features(), stripes).value();
  EXPECT_LT(ans_cut, ans_stripes);
}

// --- Output pins ------------------------------------------------------------
//
// FNV-1a fingerprints of every scheme's outcome on one fixed congested
// network, recorded before module 3 became a single (target, method) path.
// Any change to a scheme's labels, k', k, supernode count or objective bits
// shows up here.

struct PinCase {
  Scheme scheme;
  bool refine;
  bool uniform;  ///< uniform densities: ASG falls back to the road graph
  bool with_objective;
  uint64_t hash;
};

RoadNetwork PinNetwork(bool uniform) {
  RoadNetwork net = HotspotNetwork(11);
  if (uniform) {
    (void)net.SetDensities(std::vector<double>(net.num_segments(), 0.05));
  }
  return net;
}

uint64_t OutcomeHash(const PartitionOutcome& o, bool with_objective) {
  uint64_t h = Fnv1a64(o.assignment.data(), o.assignment.size() * sizeof(int));
  const int ints[3] = {o.k_final, o.k_prime, o.num_supernodes};
  h = Fnv1a64(ints, sizeof(ints), h);
  if (with_objective) {
    uint64_t bits;
    std::memcpy(&bits, &o.objective, sizeof(bits));
    h = Fnv1a64(&bits, sizeof(bits), h);
  }
  return h;
}

PartitionerOptions PinOptions(Scheme scheme, bool refine) {
  PartitionerOptions options;
  options.scheme = scheme;
  options.k = 4;
  options.seed = 3;
  options.refine_boundary = refine;
  return options;
}

TEST(PartitionerPinTest, SchemeOutputsArePinned) {
  const PinCase cases[] = {
      {Scheme::kAG, false, false, true, 0xdd33b6b632536760ULL},
      {Scheme::kASG, false, false, true, 0xa1d392bc92c8e841ULL},
      {Scheme::kNG, false, false, true, 0x05b37db3f1b7290aULL},
      {Scheme::kNSG, false, false, true, 0x375f737c9acf6175ULL},
      {Scheme::kJiGeroliminis, false, false, true, 0x740ab13febc91ba0ULL},
      {Scheme::kAG, true, false, true, 0x03e40369fecb8ccbULL},
      {Scheme::kASG, true, false, false, 0xde39f41cf4a56135ULL},
      {Scheme::kNG, true, false, true, 0x36cc4bdde5d045a3ULL},
      {Scheme::kNSG, true, false, false, 0xde39f41cf4a56135ULL},
      {Scheme::kASG, false, true, true, 0x001fcd0ea3795aabULL},
      {Scheme::kASG, true, true, true, 0x001fcd0ea3795aabULL},
  };
  for (const PinCase& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << SchemeName(c.scheme) << " refine=" << c.refine
                 << " uniform=" << c.uniform);
    RoadNetwork net = PinNetwork(c.uniform);
    auto outcome =
        Partitioner(PinOptions(c.scheme, c.refine)).PartitionNetwork(net);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (c.uniform) {
      EXPECT_LT(outcome->num_supernodes, 4);  // the road-graph fallback
    }
    EXPECT_EQ(OutcomeHash(*outcome, c.with_objective), c.hash)
        << std::hex << "0x" << OutcomeHash(*outcome, c.with_objective);
  }
}

// Refinement on a supergraph moves whole supernodes, so the reported
// objective must be the refined labels' objective on the superlinks, not the
// pre-refinement spectral cut's.
TEST(PartitionerPinTest, SupergraphRefinementRecomputesObjective) {
  RoadGraph rg = RoadGraph::FromNetwork(PinNetwork(/*uniform=*/false));
  for (Scheme scheme : {Scheme::kASG, Scheme::kNSG}) {
    SCOPED_TRACE(SchemeName(scheme));
    PartitionerOptions options = PinOptions(scheme, /*refine=*/true);
    auto refined = Partitioner(options).PartitionRoadGraph(rg);
    options.refine_boundary = false;
    auto plain = Partitioner(options).PartitionRoadGraph(rg);
    ASSERT_TRUE(refined.ok()) << refined.status().ToString();
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_NE(refined->assignment, plain->assignment);

    SupergraphMinerOptions miner = options.miner;
    miner.min_supernodes = std::max(miner.min_supernodes, options.k);
    Supergraph sg = MineSupergraph(rg, miner).value();
    ASSERT_EQ(sg.num_supernodes(), refined->num_supernodes);
    std::vector<int> labels(sg.num_supernodes());
    for (int p = 0; p < sg.num_supernodes(); ++p) {
      labels[p] = refined->assignment[sg.supernode(p).members[0]];
    }
    const AlphaCutMethod alpha_cut(options.spectral);
    const NormalizedCutMethod normalized_cut(options.spectral);
    const SpectralCutMethod& method =
        scheme == Scheme::kASG
            ? static_cast<const SpectralCutMethod&>(alpha_cut)
            : normalized_cut;
    const double expected = method.Objective(sg.links(), labels);
    EXPECT_EQ(std::memcmp(&refined->objective, &expected, sizeof(double)), 0)
        << refined->objective << " vs " << expected;
  }
}

}  // namespace
}  // namespace roadpart
