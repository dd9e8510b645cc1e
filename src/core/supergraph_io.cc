#include "core/supergraph_io.h"

#include <sstream>

#include "common/durable_io.h"
#include "common/string_util.h"

namespace roadpart {

namespace {
constexpr char kSupergraphFormat[] = "supergraph";
constexpr int kSupergraphVersion = 1;
}  // namespace

Status SaveSupergraph(const Supergraph& supergraph, const std::string& path,
                      const RetryOptions& retry) {
  std::ostringstream out;
  out << "# supergraph v1\n";
  out << "G " << supergraph.num_road_nodes() << " "
      << supergraph.num_supernodes() << "\n";
  for (const Supernode& sn : supergraph.supernodes()) {
    out << StrPrintf("%.12g %zu", sn.feature, sn.members.size());
    for (int v : sn.members) out << " " << v;
    out << "\n";
  }
  const CsrGraph& links = supergraph.links();
  out << "L " << links.num_edges() << "\n";
  for (int p = 0; p < links.num_nodes(); ++p) {
    auto nbrs = links.Neighbors(p);
    auto wts = links.NeighborWeights(p);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (p < nbrs[i]) {
        out << StrPrintf("%d %d %.12g\n", p, nbrs[i], wts[i]);
      }
    }
  }
  return WriteArtifact(path, kSupergraphFormat, kSupergraphVersion, out.str(),
                       retry);
}

Result<Supergraph> LoadSupergraph(const std::string& path,
                                  const RetryOptions& retry) {
  ArtifactReadOptions read_options;
  read_options.expected_format = kSupergraphFormat;
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

  if (!next_line(line)) return Status::IOError("empty supergraph file");
  char tag = 0;
  int num_road_nodes = 0;
  int num_supernodes = 0;
  {
    std::istringstream ss(line);
    if (!(ss >> tag >> num_road_nodes >> num_supernodes) || tag != 'G' ||
        num_road_nodes < 0 || num_supernodes < 0) {
      return Status::IOError("malformed supergraph header");
    }
  }

  // Header counts are untrusted: vectors grow only as lines and fields
  // actually parse, so an absurd count ends in a typed error, not an
  // allocation failure.
  std::vector<Supernode> supernodes;
  for (int s = 0; s < num_supernodes; ++s) {
    if (!next_line(line)) return Status::IOError("truncated supernodes");
    std::istringstream ss(line);
    Supernode& sn = supernodes.emplace_back();
    size_t count = 0;
    if (!(ss >> sn.feature >> count)) {
      return Status::IOError(StrPrintf("bad supernode line %d", s));
    }
    for (size_t i = 0; i < count; ++i) {
      int member = 0;
      if (!(ss >> member)) {
        return Status::IOError(StrPrintf("bad member list on supernode %d", s));
      }
      sn.members.push_back(member);
    }
  }

  if (!next_line(line)) return Status::IOError("missing link header");
  int64_t num_links = 0;
  {
    std::istringstream ss(line);
    if (!(ss >> tag >> num_links) || tag != 'L' || num_links < 0) {
      return Status::IOError("malformed link header");
    }
  }
  std::vector<Edge> links;
  for (int64_t i = 0; i < num_links; ++i) {
    if (!next_line(line)) return Status::IOError("truncated links");
    std::istringstream ss(line);
    Edge& link = links.emplace_back();
    if (!(ss >> link.u >> link.v >> link.weight)) {
      return Status::IOError(
          StrPrintf("bad link line %lld", static_cast<long long>(i)));
    }
  }

  RP_ASSIGN_OR_RETURN(CsrGraph link_graph,
                      CsrGraph::FromEdges(num_supernodes, links));
  return Supergraph::Create(std::move(supernodes), std::move(link_graph),
                            num_road_nodes);
}

}  // namespace roadpart
