#include "network/network_io.h"

#include <limits>
#include <sstream>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace roadpart {

namespace {
constexpr char kRoadnetFormat[] = "roadnet";
constexpr char kDensitiesFormat[] = "densities";
constexpr char kPartitionFormat[] = "partition-csv";
constexpr int kNetworkIoVersion = 1;
}  // namespace

Status SaveRoadNetwork(const RoadNetwork& network, const std::string& path,
                       const RetryOptions& retry) {
  std::ostringstream out;
  out << "# roadnet v1\n";
  out << "I " << network.num_intersections() << "\n";
  for (const Intersection& it : network.intersections()) {
    out << StrPrintf("%.6f %.6f\n", it.position.x, it.position.y);
  }
  out << "S " << network.num_segments() << "\n";
  for (const RoadSegment& s : network.segments()) {
    out << StrPrintf("%d %d %.6f %.9f\n", s.from, s.to, s.length, s.density);
  }
  return WriteArtifact(path, kRoadnetFormat, kNetworkIoVersion, out.str(),
                       retry);
}

Result<RoadNetwork> LoadRoadNetwork(const std::string& path,
                                    const RetryOptions& retry) {
  ArtifactReadOptions read_options;
  read_options.expected_format = kRoadnetFormat;
  read_options.retry = retry;
  RP_ASSIGN_OR_RETURN(std::string payload, ReadArtifact(path, read_options));
  std::istringstream in(payload);
  std::string line;

  auto next_line = [&](std::string& out_line) -> bool {
    while (std::getline(in, out_line)) {
      std::string_view t = Trim(out_line);
      if (!t.empty() && t[0] != '#') {
        out_line = std::string(t);
        return true;
      }
    }
    return false;
  };

  if (!next_line(line)) return Status::IOError("empty network file " + path);
  std::istringstream header_i(line);
  char tag = 0;
  int ni = 0;
  header_i >> tag >> ni;
  if (tag != 'I' || ni < 0) {
    return Status::IOError("malformed intersection header in " + path);
  }
  // Header counts are untrusted: vectors grow only as lines actually parse,
  // so an absurd count ends in a typed error, not an allocation failure.
  std::vector<Intersection> intersections;
  for (int i = 0; i < ni; ++i) {
    if (!next_line(line)) return Status::IOError("truncated intersections");
    std::istringstream ss(line);
    Intersection& node = intersections.emplace_back();
    if (!(ss >> node.position.x >> node.position.y)) {
      return Status::IOError(StrPrintf("bad intersection line %d", i));
    }
  }

  if (!next_line(line)) return Status::IOError("missing segment header");
  std::istringstream header_s(line);
  int ns = 0;
  header_s >> tag >> ns;
  if (tag != 'S' || ns < 0) {
    return Status::IOError("malformed segment header in " + path);
  }
  std::vector<RoadSegment> segments;
  for (int i = 0; i < ns; ++i) {
    if (!next_line(line)) return Status::IOError("truncated segments");
    std::istringstream ss(line);
    RoadSegment& seg = segments.emplace_back();
    if (!(ss >> seg.from >> seg.to >> seg.length >> seg.density)) {
      return Status::IOError(StrPrintf("bad segment line %d", i));
    }
  }
  return RoadNetwork::Create(std::move(intersections), std::move(segments));
}

Status SaveDensities(const std::vector<double>& densities,
                     const std::string& path, const RetryOptions& retry) {
  std::ostringstream out;
  for (double d : densities) out << StrPrintf("%.9f\n", d);
  return WriteArtifact(path, kDensitiesFormat, kNetworkIoVersion, out.str(),
                       retry);
}

Result<std::vector<double>> LoadDensities(const std::string& path,
                                          const RetryOptions& retry) {
  ArtifactReadOptions read_options;
  read_options.expected_format = kDensitiesFormat;
  read_options.retry = retry;
  RP_ASSIGN_OR_RETURN(std::string payload, ReadArtifact(path, read_options));
  std::istringstream in(payload);
  std::vector<double> densities;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    RP_ASSIGN_OR_RETURN(double d, ParseDouble(t));
    densities.push_back(d);
  }
  // Fault hooks (test-only; compiled to nothing under
  // RP_DISABLE_FAULT_INJECTION): simulate sensor corruption and a short read
  // after a successful parse, so downstream sanitization is what gets tested.
  if (!densities.empty() &&
      RP_FAULT_FIRES(FaultSite::kDensityLoadNaN)) {
    if (FaultInjector* inj = GlobalFaultInjector()) {
      const int n = static_cast<int>(densities.size());
      for (int i : inj->PickIndices(n, std::max(1, n / 8))) {
        densities[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  if (!densities.empty() &&
      RP_FAULT_FIRES(FaultSite::kDensityLoadShortRead)) {
    const size_t keep = densities.size() - std::max<size_t>(
        1, densities.size() / 4);
    densities.resize(keep);
  }
  return densities;
}

Status SavePartitionCsv(const std::vector<int>& assignment,
                        const std::string& path, const RetryOptions& retry) {
  std::ostringstream out;
  out << "segment_id,partition_id\n";
  for (size_t i = 0; i < assignment.size(); ++i) {
    out << i << "," << assignment[i] << "\n";
  }
  return WriteArtifact(path, kPartitionFormat, kNetworkIoVersion, out.str(),
                       retry);
}

Result<std::vector<int>> LoadPartitionCsv(const std::string& path,
                                          int num_segments,
                                          const RetryOptions& retry) {
  ArtifactReadOptions read_options;
  read_options.expected_format = kPartitionFormat;
  read_options.retry = retry;
  RP_ASSIGN_OR_RETURN(std::string payload, ReadArtifact(path, read_options));
  std::istringstream in(payload);
  std::vector<int> assignment(num_segments, -1);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    std::string_view t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    if (first && StartsWith(t, "segment_id")) {
      first = false;
      continue;
    }
    first = false;
    auto parts = Split(t, ',');
    if (parts.size() != 2) {
      return Status::IOError("malformed partition line: " + line);
    }
    RP_ASSIGN_OR_RETURN(int64_t id, ParseInt(parts[0]));
    RP_ASSIGN_OR_RETURN(int64_t label, ParseInt(parts[1]));
    if (id < 0 || id >= num_segments) {
      return Status::OutOfRange(
          StrPrintf("segment id %lld outside [0,%d)",
                    static_cast<long long>(id), num_segments));
    }
    if (label < 0 || label >= num_segments) {  // more labels than segments
      return Status::OutOfRange(StrPrintf(
          "segment %lld label %lld outside [0,%d)", static_cast<long long>(id),
          static_cast<long long>(label), num_segments));
    }
    assignment[id] = static_cast<int>(label);
  }
  for (int i = 0; i < num_segments; ++i) {
    if (assignment[i] < 0) {
      return Status::InvalidArgument(
          StrPrintf("segment %d has no partition assignment", i));
    }
  }
  return assignment;
}

}  // namespace roadpart
