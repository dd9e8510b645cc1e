#ifndef ROADPART_PERFBENCH_CITY_H_
#define ROADPART_PERFBENCH_CITY_H_

// The benchmark's cities, defined here so that only files under perfbench/
// decide the benchmark's inputs: a Table-1 dataset whose densities are a
// congestion field with Voronoi-tiled hotspots (rush-hour structure: distinct
// congestion levels tile the whole city), the hotspot count scaling with the
// city's size.

#include <cstdint>

#include "common/check.h"
#include "netgen/city_generator.h"
#include "network/road_network.h"
#include "traffic/congestion_field.h"

namespace roadpart::perfbench {

/// The congestion field of the city `preset`/`seed`.
inline CongestionFieldOptions CityField(DatasetPreset preset, uint64_t seed) {
  CongestionFieldOptions field;
  switch (preset) {
    case DatasetPreset::kD1:
      field.num_hotspots = 3;
      break;
    case DatasetPreset::kM1:
      field.num_hotspots = 5;
      break;
    case DatasetPreset::kM2:
      field.num_hotspots = 8;
      break;
    case DatasetPreset::kM3:
      field.num_hotspots = 10;
      break;
  }
  field.hotspot_radius_fraction = 0.15;
  field.voronoi_tiling = true;
  field.seed = seed + 1000;
  return field;
}

/// The generated dataset with the field's densities set.
inline RoadNetwork MakeCity(DatasetPreset preset, uint64_t seed) {
  RoadNetwork network = GenerateDataset(preset, seed).value();
  const CongestionField congestion(network, CityField(preset, seed));
  RP_CHECK(network.SetDensities(congestion.Densities()).ok());
  return network;
}

}  // namespace roadpart::perfbench

#endif  // ROADPART_PERFBENCH_CITY_H_
