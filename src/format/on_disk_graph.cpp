#include "format/on_disk_graph.h"

#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "device/file_device.h"
#include "device/mem_device.h"
#include "format/dvarint.h"

namespace blaze::format {

namespace {

constexpr std::uint32_t kIndexMagic = 0x425A4749;  // "BZGI"
constexpr std::uint32_t kIndexVersionUnweighted = 1;
constexpr std::uint32_t kIndexVersionWeighted = 2;
constexpr std::uint32_t kIndexVersionDvarint = 3;

std::vector<std::uint32_t> degrees_of(const graph::Csr& g) {
  std::vector<std::uint32_t> degrees(g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) degrees[v] = g.degree(v);
  return degrees;
}

/// Stripes the logical adjacency bytes over the raw spans of the children
/// (RAID-0 page interleaving).
void stripe_pages(std::span<const std::byte> logical,
                  std::vector<std::span<std::byte>> children) {
  std::uint64_t pages = ceil_div<std::uint64_t>(logical.size(), kPageSize);
  for (std::uint64_t p = 0; p < pages; ++p) {
    std::size_t child = p % children.size();
    std::uint64_t child_page = p / children.size();
    std::size_t len = std::min<std::size_t>(
        kPageSize, logical.size() - p * kPageSize);
    std::memcpy(children[child].data() + child_page * kPageSize,
                logical.data() + p * kPageSize, len);
  }
}

/// Lays serialized adjacency bytes onto N simulated SSDs or mem devices.
template <typename DeviceT, typename... Args>
OnDiskGraph build_on_devices(GraphIndex index, std::vector<std::byte> adj,
                             std::size_t num_devices, Args&&... args) {
  BLAZE_CHECK(num_devices >= 1, "need at least one device");
  std::uint64_t pages = adj.size() / kPageSize;
  std::uint64_t per_child_pages = ceil_div<std::uint64_t>(pages, num_devices);

  std::vector<std::shared_ptr<device::BlockDevice>> children;
  std::vector<std::span<std::byte>> raws;
  for (std::size_t i = 0; i < num_devices; ++i) {
    auto dev = std::make_shared<DeviceT>("dev" + std::to_string(i),
                                         per_child_pages * kPageSize,
                                         args...);
    raws.push_back(dev->raw());
    children.push_back(std::move(dev));
  }
  stripe_pages(adj, raws);
  if (num_devices == 1) {
    return OnDiskGraph(std::move(index), std::move(children[0]));
  }
  return OnDiskGraph(std::move(index),
                     std::make_shared<device::Raid0Device>(std::move(children)));
}

void write_index_file(const std::string& path,
                      std::span<const std::uint32_t> degrees,
                      std::uint64_t num_edges, std::uint32_t version,
                      const GraphIndex* dvarint_index = nullptr) {
  std::ofstream idx(path, std::ios::binary);
  if (!idx) throw std::runtime_error("cannot write " + path);
  std::uint32_t magic = kIndexMagic;
  std::uint64_t v = degrees.size(), e = num_edges;
  idx.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  idx.write(reinterpret_cast<const char*>(&version), sizeof(version));
  idx.write(reinterpret_cast<const char*>(&v), sizeof(v));
  idx.write(reinterpret_cast<const char*>(&e), sizeof(e));
  idx.write(reinterpret_cast<const char*>(degrees.data()),
            static_cast<std::streamsize>(degrees.size() *
                                         sizeof(std::uint32_t)));
  if (version == kIndexVersionDvarint) {
    // v3 extension: per-vertex encoded lengths, then the per-page decode
    // carry table (count-prefixed).
    const auto lengths = dvarint_index->encoded_lengths();
    const auto carries = dvarint_index->carries();
    const std::uint64_t num_carries = carries.size();
    idx.write(reinterpret_cast<const char*>(lengths.data()),
              static_cast<std::streamsize>(lengths.size() *
                                           sizeof(std::uint32_t)));
    idx.write(reinterpret_cast<const char*>(&num_carries),
              sizeof(num_carries));
    idx.write(reinterpret_cast<const char*>(carries.data()),
              static_cast<std::streamsize>(carries.size() *
                                           sizeof(PageCarry)));
  }
  if (!idx) throw std::runtime_error("short write on index file");
}

void write_bytes_file(const std::string& path,
                      std::span<const std::byte> bytes) {
  std::ofstream adj(path, std::ios::binary);
  if (!adj) throw std::runtime_error("cannot write " + path);
  adj.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!adj) throw std::runtime_error("short write on adjacency file");
}

}  // namespace

std::vector<std::byte> serialize_adjacency(const graph::Csr& g) {
  std::uint64_t bytes = g.num_edges() * sizeof(vertex_t);
  std::vector<std::byte> out(round_up<std::uint64_t>(
      std::max<std::uint64_t>(bytes, 1), kPageSize));
  // Edgeless graphs have a null edges().data(); memcpy's arguments must
  // be non-null even for size 0.
  if (bytes != 0) std::memcpy(out.data(), g.edges().data(), bytes);
  return out;
}

std::vector<std::byte> serialize_adjacency(const graph::WeightedCsr& g) {
  std::uint64_t bytes = g.num_edges() * sizeof(WeightedEdgeRecord);
  std::vector<std::byte> out(round_up<std::uint64_t>(
      std::max<std::uint64_t>(bytes, 1), kPageSize));
  auto* records = reinterpret_cast<WeightedEdgeRecord*>(out.data());
  const auto dsts = g.structure().edges();
  const auto weights = g.weights();
  for (std::uint64_t e = 0; e < g.num_edges(); ++e) {
    records[e] = WeightedEdgeRecord{dsts[e], weights[e]};
  }
  return out;
}

namespace {

/// Index + padded adjacency bytes for the requested encoding.
std::pair<GraphIndex, std::vector<std::byte>> build_layout(
    const graph::Csr& g, AdjacencyEncoding encoding) {
  if (encoding == AdjacencyEncoding::kDeltaVarint) {
    DvarintAdjacency enc = encode_dvarint(g);
    std::vector<std::byte> bytes = std::move(enc.bytes);
    return {make_dvarint_index(g, enc), std::move(bytes)};
  }
  return {GraphIndex(degrees_of(g)), serialize_adjacency(g)};
}

}  // namespace

OnDiskGraph make_simulated_graph(const graph::Csr& g,
                                 const device::SsdProfile& profile,
                                 std::size_t num_devices,
                                 std::uint64_t timeline_bucket_ns,
                                 AdjacencyEncoding encoding) {
  auto [index, adj] = build_layout(g, encoding);
  return build_on_devices<device::SimulatedSsd>(
      std::move(index), std::move(adj), num_devices, profile,
      timeline_bucket_ns);
}

OnDiskGraph make_mem_graph(const graph::Csr& g, std::size_t num_devices,
                           AdjacencyEncoding encoding) {
  auto [index, adj] = build_layout(g, encoding);
  return build_on_devices<device::MemDevice>(std::move(index),
                                             std::move(adj), num_devices);
}

graph::Csr decode_to_csr(const OnDiskGraph& g) {
  const GraphIndex& index = g.index();
  if (index.record_bytes() != sizeof(vertex_t)) {
    throw EncodingError(
        "decode_to_csr: weighted graphs (8-byte interleaved records) "
        "cannot be re-encoded; delta+varint packs 4-byte neighbor ids "
        "only");
  }
  const std::uint64_t total = index.total_adjacency_bytes();
  std::vector<std::byte> adj(round_up<std::uint64_t>(
      std::max<std::uint64_t>(total, 1), kPageSize));
  for (std::uint64_t off = 0; off < adj.size(); off += kPageSize) {
    g.device().read(off, std::span<std::byte>(adj.data() + off, kPageSize));
  }

  const vertex_t n = index.num_vertices();
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<vertex_t> neighbors;
  neighbors.reserve(index.num_edges());
  for (vertex_t v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + index.degree(v);
    if (index.degree(v) == 0) continue;
    const std::byte* data = adj.data() + index.byte_offset(v);
    if (index.encoding() == AdjacencyEncoding::kDeltaVarint) {
      auto list = decode_dvarint_list(data, index.encoded_length(v),
                                      index.degree(v));
      neighbors.insert(neighbors.end(), list.begin(), list.end());
    } else {
      const auto* dsts = reinterpret_cast<const vertex_t*>(data);
      neighbors.insert(neighbors.end(), dsts, dsts + index.degree(v));
    }
  }
  return graph::Csr(std::move(offsets), std::move(neighbors));
}

OnDiskGraph make_simulated_graph(const graph::WeightedCsr& g,
                                 const device::SsdProfile& profile,
                                 std::size_t num_devices,
                                 std::uint64_t timeline_bucket_ns) {
  return build_on_devices<device::SimulatedSsd>(
      GraphIndex(degrees_of(g.structure()), sizeof(WeightedEdgeRecord)),
      serialize_adjacency(g), num_devices, profile, timeline_bucket_ns);
}

OnDiskGraph make_mem_graph(const graph::WeightedCsr& g,
                           std::size_t num_devices) {
  return build_on_devices<device::MemDevice>(
      GraphIndex(degrees_of(g.structure()), sizeof(WeightedEdgeRecord)),
      serialize_adjacency(g), num_devices);
}

void write_graph_files(const graph::Csr& g, const std::string& prefix,
                       AdjacencyEncoding encoding) {
  auto degrees = degrees_of(g);
  if (encoding == AdjacencyEncoding::kDeltaVarint) {
    auto [index, adj] = build_layout(g, encoding);
    write_index_file(prefix + ".gr.index", degrees, g.num_edges(),
                     kIndexVersionDvarint, &index);
    write_bytes_file(prefix + ".gr.adj.0", adj);
    return;
  }
  write_index_file(prefix + ".gr.index", degrees, g.num_edges(),
                   kIndexVersionUnweighted);
  write_bytes_file(prefix + ".gr.adj.0", serialize_adjacency(g));
}

void write_graph_files(const graph::WeightedCsr& g,
                       const std::string& prefix) {
  auto degrees = degrees_of(g.structure());
  write_index_file(prefix + ".gr.index", degrees, g.num_edges(),
                   kIndexVersionWeighted);
  write_bytes_file(prefix + ".gr.adj.0", serialize_adjacency(g));
}

OnDiskGraph load_graph_files(const std::string& index_path,
                             const std::string& adj_path) {
  std::ifstream idx(index_path, std::ios::binary | std::ios::ate);
  if (!idx) throw std::runtime_error("cannot open " + index_path);
  const auto file_size = static_cast<std::uint64_t>(idx.tellg());
  idx.seekg(0);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t v = 0, e = 0;
  idx.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  idx.read(reinterpret_cast<char*>(&version), sizeof(version));
  idx.read(reinterpret_cast<char*>(&v), sizeof(v));
  idx.read(reinterpret_cast<char*>(&e), sizeof(e));
  if (!idx || magic != kIndexMagic ||
      (version != kIndexVersionUnweighted &&
       version != kIndexVersionWeighted &&
       version != kIndexVersionDvarint)) {
    throw std::runtime_error("bad index file header: " + index_path);
  }
  if (v > std::numeric_limits<vertex_t>::max()) {
    throw std::runtime_error("index vertex count exceeds vertex_t: " +
                             index_path);
  }
  // Every array is sized from the file's own counts: check each against
  // the bytes left before allocating it.
  auto read_array = [&]<typename T>(std::vector<T>& out,
                                    std::uint64_t count) {
    const auto pos = static_cast<std::uint64_t>(idx.tellg());
    if (!idx || pos > file_size || count > (file_size - pos) / sizeof(T)) {
      throw std::runtime_error("truncated index file: " + index_path);
    }
    out.resize(count);
    idx.read(reinterpret_cast<char*>(out.data()),
             static_cast<std::streamsize>(count * sizeof(T)));
    if (!idx) throw std::runtime_error("truncated index file: " + index_path);
  };
  std::vector<std::uint32_t> degrees;
  read_array(degrees, v);

  if (version == kIndexVersionDvarint) {
    std::vector<std::uint32_t> enc_lengths;
    read_array(enc_lengths, v);
    std::uint64_t enc_bytes = 0;
    for (std::uint32_t len : enc_lengths) enc_bytes += len;
    std::uint64_t num_carries = 0;
    idx.read(reinterpret_cast<char*>(&num_carries), sizeof(num_carries));
    if (!idx) throw std::runtime_error("truncated index file: " + index_path);
    if (num_carries < ceil_div<std::uint64_t>(enc_bytes, kPageSize)) {
      throw std::runtime_error(
          "index carry table shorter than its adjacency pages: " +
          index_path);
    }
    std::vector<PageCarry> carries;
    read_array(carries, num_carries);
    // A page's decode resumes from its carry: the shift counts whole 7-bit
    // groups of a varint of at most 5 bytes, the partial value fits in
    // that shift, and a list that crosses into the page still has
    // neighbors left there.
    for (const PageCarry& c : carries) {
      if (c.partial_shift % 7 != 0 || c.partial_shift > 28) {
        throw std::runtime_error("index carry shift not 0-28 in 7s: " +
                                 index_path);
      }
      if ((c.partial_acc >> c.partial_shift) != 0) {
        throw std::runtime_error("index carry wider than its shift: " +
                                 index_path);
      }
    }
    std::uint64_t start = 0;
    for (vertex_t u = 0; u < v; ++u) {
      const std::uint64_t end = start + enc_lengths[u];
      for (std::uint64_t p = start / kPageSize + 1; p * kPageSize < end;
           ++p) {
        if (carries[p].edges_done >= degrees[u]) {
          throw std::runtime_error(
              "index carry past the end of its list: " + index_path);
        }
      }
      start = end;
    }
    GraphIndex index(degrees, std::move(enc_lengths), std::move(carries));
    if (index.num_edges() != e) {
      throw std::runtime_error("index degree sum mismatch: " + index_path);
    }
    auto dev = std::make_shared<device::FileDevice>(adj_path);
    if (dev->size() <
        round_up<std::uint64_t>(index.total_adjacency_bytes(), kPageSize)) {
      throw std::runtime_error("adjacency file too small: " + adj_path);
    }
    return OnDiskGraph(std::move(index), std::move(dev));
  }

  const std::uint32_t record_bytes =
      version == kIndexVersionWeighted ? sizeof(WeightedEdgeRecord)
                                       : sizeof(vertex_t);
  GraphIndex index(degrees, record_bytes);
  if (index.num_edges() != e) {
    throw std::runtime_error("index degree sum mismatch: " + index_path);
  }
  auto dev = std::make_shared<device::FileDevice>(adj_path);
  if (dev->size() < round_up<std::uint64_t>(e * record_bytes, kPageSize)) {
    throw std::runtime_error("adjacency file too small: " + adj_path);
  }
  return OnDiskGraph(std::move(index), std::move(dev));
}

}  // namespace blaze::format
