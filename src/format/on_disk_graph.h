// On-disk page-oriented CSR graph (the semi-external model's storage side).
//
// The adjacency region is a flat array of 4-byte neighbor IDs packed
// back-to-back in vertex order, padded to a whole number of 4 kB pages, and
// striped RAID-0 across one or more devices. The index (degrees) and the
// page-to-vertex map stay in DRAM, matching the paper's semi-external
// memory budget of ~4.5 B/vertex + 8 B/page.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "device/block_device.h"
#include "device/raid0_device.h"
#include "device/simulated_ssd.h"
#include "format/graph_index.h"
#include "format/page_vertex_map.h"
#include "graph/csr.h"
#include "graph/weighted.h"
#include "io/page_verify.h"

namespace blaze::format {

/// Thrown when an operation is asked to apply an adjacency encoding the
/// graph's record layout cannot carry — e.g. transcoding a weighted graph
/// (8-byte interleaved records) to delta+varint, which only packs 4-byte
/// neighbor ids. Tools catch this and report it instead of mis-decoding
/// the records as neighbor lists.
class EncodingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A graph whose adjacency lives on a block device. This is the object the
/// out-of-core EdgeMap engine consumes.
class OnDiskGraph {
 public:
  OnDiskGraph() = default;
  OnDiskGraph(GraphIndex index, std::shared_ptr<device::BlockDevice> dev)
      : index_(std::move(index)),
        map_(index_),
        dev_(std::move(dev)) {}

  vertex_t num_vertices() const { return index_.num_vertices(); }
  std::uint64_t num_edges() const { return index_.num_edges(); }
  std::uint64_t num_pages() const { return map_.num_pages(); }

  const GraphIndex& index() const { return index_; }
  const PageVertexMap& page_map() const { return map_; }
  device::BlockDevice& device() const { return *dev_; }
  const std::shared_ptr<device::BlockDevice>& device_ptr() const {
    return dev_;
  }

  std::uint32_t degree(vertex_t v) const { return index_.degree(v); }

  /// Optional end-to-end integrity gate: when set, every EdgeMap read of
  /// this graph's adjacency is checked page-by-page and a mismatch
  /// surfaces as io::IoError{kCorruption} instead of silently corrupt
  /// results. The verifier receives *device-local* page indices, so it is
  /// only meaningful for single-device graphs (the chaos tests' shape);
  /// setting it on a RAID-0 striped graph fails fast instead of silently
  /// verifying nothing (striped graphs need per-stripe checksums).
  void set_page_verifier(io::PageVerifier v) {
    BLAZE_CHECK(dynamic_cast<device::Raid0Device*>(dev_.get()) == nullptr,
                "page verifier on a striped graph would silently verify "
                "the wrong pages; use per-stripe checksums instead");
    verifier_ = std::move(v);
  }
  const io::PageVerifier& page_verifier() const { return verifier_; }

  /// First and last page of vertex v's adjacency bytes. Defined only for
  /// degree > 0 — a zero-degree vertex occupies no bytes, and its
  /// neighbor's byte offset would alias a page (underflowing to page
  /// 2^52-1 at byte offset 0), so callers must filter first.
  std::pair<std::uint64_t, std::uint64_t> page_range(vertex_t v) const {
    BLAZE_CHECK(index_.degree(v) != 0,
                "page_range is undefined for a degree-0 vertex");
    const std::uint64_t b = index_.byte_offset(v);  // one group walk
    const std::uint64_t e = b + index_.byte_length(v);
    return {b / kPageSize, (e - 1) / kPageSize};
  }

  /// DRAM bytes of graph metadata (index + page map).
  std::uint64_t metadata_bytes() const {
    return index_.memory_bytes() + map_.memory_bytes();
  }

  /// Total on-disk bytes of the graph (index + adjacency), the denominator
  /// in the memory-footprint figure. Encoding-aware: compressed adjacency
  /// reports its encoded size.
  std::uint64_t input_bytes() const {
    return index_.num_vertices() * sizeof(std::uint32_t) +
           index_.total_adjacency_bytes();
  }

  /// On-disk adjacency bytes per edge (4.0 for flat unweighted, 8.0 for
  /// weighted, typically ~1.5-2 for dvarint on power-law graphs).
  double bytes_per_edge() const {
    return num_edges() == 0
               ? 0.0
               : static_cast<double>(index_.total_adjacency_bytes()) /
                     static_cast<double>(num_edges());
  }

 private:
  GraphIndex index_;
  PageVertexMap map_;
  std::shared_ptr<device::BlockDevice> dev_;
  io::PageVerifier verifier_;  ///< empty = no verification
};

/// On-disk edge record of a weighted graph: destination + weight,
/// interleaved (8 bytes; kPageSize is a multiple, so records never
/// straddle pages).
struct WeightedEdgeRecord {
  vertex_t dst;
  float weight;
};
static_assert(sizeof(WeightedEdgeRecord) == 8);

/// Serializes the adjacency region of `g` (packed u32 neighbors, padded to a
/// page multiple).
std::vector<std::byte> serialize_adjacency(const graph::Csr& g);

/// Serializes a weighted adjacency region (packed WeightedEdgeRecords).
std::vector<std::byte> serialize_adjacency(const graph::WeightedCsr& g);

/// Builds an OnDiskGraph on `num_devices` SimulatedSsds with the given
/// profile (RAID-0 striped when num_devices > 1). `encoding` selects the
/// flat or delta+varint adjacency layout (striping is page-interleaved in
/// both, so device balance is identical).
OnDiskGraph make_simulated_graph(
    const graph::Csr& g, const device::SsdProfile& profile,
    std::size_t num_devices = 1, std::uint64_t timeline_bucket_ns = 0,
    AdjacencyEncoding encoding = AdjacencyEncoding::kFlat);

/// Builds an OnDiskGraph backed by plain memory devices (no timing model);
/// tests use this for fast correctness runs.
OnDiskGraph make_mem_graph(
    const graph::Csr& g, std::size_t num_devices = 1,
    AdjacencyEncoding encoding = AdjacencyEncoding::kFlat);

/// Reads the full adjacency region back off the device and decodes it to
/// an in-memory CSR (flat or dvarint, unweighted only). dvarint lists come
/// back sorted — the encoding sorts each list. Tools use this to transcode
/// between formats; tests use it as the round-trip oracle. Throws
/// format::EncodingError for weighted graphs: their 8-byte (dst, weight)
/// records would silently mis-decode as neighbor ids.
graph::Csr decode_to_csr(const OnDiskGraph& g);

/// Weighted variants (8-byte interleaved records).
OnDiskGraph make_simulated_graph(const graph::WeightedCsr& g,
                                 const device::SsdProfile& profile,
                                 std::size_t num_devices = 1,
                                 std::uint64_t timeline_bucket_ns = 0);
OnDiskGraph make_mem_graph(const graph::WeightedCsr& g,
                           std::size_t num_devices = 1);

/// Writes `<prefix>.gr.index` and `<prefix>.gr.adj.0` (the artifact's file
/// layout). Throws std::runtime_error on IO failure. The dvarint encoding
/// writes a version-3 index carrying the per-vertex encoded lengths and
/// per-page decode carries alongside the degrees.
void write_graph_files(const graph::Csr& g, const std::string& prefix,
                       AdjacencyEncoding encoding = AdjacencyEncoding::kFlat);

/// Weighted file layout: same index plus interleaved-record adjacency; the
/// index header records the 8-byte record size.
void write_graph_files(const graph::WeightedCsr& g,
                       const std::string& prefix);

/// Loads a graph written by write_graph_files, serving adjacency reads from
/// the file through FileDevice.
OnDiskGraph load_graph_files(const std::string& index_path,
                             const std::string& adj_path);

}  // namespace blaze::format
