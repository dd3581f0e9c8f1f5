#include "netclus/index_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "graph/spf/contraction_hierarchy.h"
#include "netclus/cluster_index.h"
#include "store/binary_io.h"
#include "store/buffer_pool.h"
#include "store/mmap_file.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/strings.h"

namespace netclus::index {

namespace {

// Structural sanity cap on any serialized count/length. Real indexes stay
// far below it; a corrupt count above it fails fast instead of driving a
// multi-gigabyte allocation. (Reads below also grow containers only as
// fast as actual parsed data, so truncation cannot allocate ahead of the
// stream either.)
constexpr uint64_t kMaxListLength = 1ull << 31;
constexpr uint64_t kMaxInstances = 4096;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  // Structured log in addition to the out-param: callers historically
  // swallow the error string, and a corrupt index file should be visible
  // in the service log either way.
  NC_SLOG_WARNING("index_io_error").Kv("what", message);
  return false;
}

// Reads a tag token and verifies it.
bool Expect(std::istream& is, const char* tag, std::string* error) {
  std::string token;
  if (!(is >> token) || token != tag) {
    return Fail(error, std::string("expected '") + tag + "', got '" + token + "'");
  }
  return true;
}

// Shared post-parse validation: cluster ids in range, assignments
// consistent, and every id stored in the per-cluster lists inside its id
// space — a well-checksummed but crafted file must not be able to plant
// ids that fault at query time. Run by both the v1 and v2 readers.
bool ValidateInstanceStructure(const ClusterIndex& index, std::string* error) {
  for (graph::NodeId v = 0; v < index.num_nodes(); ++v) {
    if (index.cluster_of(v) >= index.num_clusters()) {
      return Fail(error, "cluster id out of range");
    }
  }
  // Stamp array for TL uniqueness: TlList::Remove and the tombstone-skip
  // iteration assume at most one entry per (cluster, trajectory) — a
  // crafted file with duplicates would corrupt the live-entry accounting
  // after a dynamic update.
  constexpr uint32_t kNoCluster = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> tl_seen(index.num_sequences(), kNoCluster);
  for (uint32_t g = 0; g < index.num_clusters(); ++g) {
    const Cluster& c = index.cluster(g);
    if (c.center >= index.num_nodes() || index.cluster_of(c.center) != g) {
      return Fail(error, "center/assignment mismatch");
    }
    if (c.representative != tops::kInvalidSite &&
        c.representative >= index.num_site_slots()) {
      return Fail(error, "representative out of range");
    }
    for (const tops::SiteId s : c.sites) {
      if (s >= index.num_site_slots()) {
        return Fail(error, "site id out of range");
      }
    }
    for (const ClEntry& e : c.cl) {
      if (e.cluster >= index.num_clusters()) {
        return Fail(error, "cl cluster id out of range");
      }
    }
    for (const TlEntry& e : c.tl) {
      if (e.traj >= index.num_sequences()) {
        return Fail(error, "tl trajectory id out of range");
      }
      if (tl_seen[e.traj] == g) {
        return Fail(error, "duplicate trajectory id in tl list");
      }
      tl_seen[e.traj] = g;
    }
  }
  return true;
}

// Bounded reserve: trust `declared` only up to a small pre-allocation —
// containers then grow geometrically with actually-parsed data, so a
// corrupt count cannot allocate ahead of the stream (no resize bombs).
template <typename Vector>
void SafeReserve(Vector& v, uint64_t declared) {
  v.reserve(static_cast<size_t>(std::min<uint64_t>(declared, 1u << 16)));
}

}  // namespace

// ---------------------------------------------------------------------------
// ClusterIndex — v1 text
// ---------------------------------------------------------------------------

void ClusterIndex::WriteTo(std::ostream& os) const {
  os << std::setprecision(12);
  os << "instance\n";
  os << "config " << config_.radius_m << " " << config_.gamma << " "
     << static_cast<int>(config_.gdsp_strategy) << " " << config_.fm_copies
     << " " << static_cast<int>(config_.representative_rule) << "\n";
  os << "stats " << stats_.gdsp_seconds << " " << stats_.build_seconds << " "
     << stats_.mean_dominating_set_size << " " << stats_.mean_tl_size << " "
     << stats_.mean_cl_size << " " << stats_.compressed_postings << " "
     << stats_.raw_postings << "\n";

  os << "node_cluster " << node_cluster_.size();
  for (uint32_t g : node_cluster_) os << " " << g;
  os << "\nnode_rt " << node_rt_.size();
  for (float rt : node_rt_) os << " " << rt;
  os << "\nclusters " << clusters_.size() << "\n";
  for (const Cluster& c : clusters_) {
    os << "cluster " << c.center << " " << c.representative << " "
       << c.rep_rt_m << "\n";
    os << " sites " << c.sites.size();
    for (tops::SiteId s : c.sites) os << " " << s;
    // Live TL entries: frozen-minus-tombstones plus dynamic additions.
    os << "\n tl " << c.tl.size();
    for (const TlEntry& e : c.tl) os << " " << e.traj << " " << e.dr_m;
    os << "\n cl " << c.cl.size();
    for (const ClEntry& e : c.cl) os << " " << e.cluster << " " << e.dr_m;
    os << "\n";
  }
  os << "seqs " << cc_count_ << "\n";
  for (traj::TrajId t = 0; t < cc_count_; ++t) {
    const store::PostingListView seq = cluster_sequence_view(t);
    os << seq.size();
    for (uint32_t g : seq) os << " " << g;
    os << "\n";
  }
  os << "removed " << site_removed_.size();
  for (bool removed : site_removed_) os << " " << (removed ? 1 : 0);
  os << "\n";
}

bool ClusterIndex::ReadFrom(std::istream& is, ClusterIndex* out,
                            std::string* error) {
  ClusterIndex index;
  if (!Expect(is, "instance", error)) return false;
  if (!Expect(is, "config", error)) return false;
  int strategy = 0, rule = 0;
  if (!(is >> index.config_.radius_m >> index.config_.gamma >> strategy >>
        index.config_.fm_copies >> rule)) {
    return Fail(error, "bad config line");
  }
  index.config_.gdsp_strategy = static_cast<GdspStrategy>(strategy);
  index.config_.representative_rule = static_cast<RepresentativeRule>(rule);
  if (!Expect(is, "stats", error)) return false;
  if (!(is >> index.stats_.gdsp_seconds >> index.stats_.build_seconds >>
        index.stats_.mean_dominating_set_size >> index.stats_.mean_tl_size >>
        index.stats_.mean_cl_size >> index.stats_.compressed_postings >>
        index.stats_.raw_postings)) {
    return Fail(error, "bad stats line");
  }

  uint64_t count = 0;
  if (!Expect(is, "node_cluster", error) || !(is >> count) ||
      count > kMaxListLength) {
    return Fail(error, "bad node_cluster header");
  }
  SafeReserve(index.node_cluster_, count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t g = 0;
    if (!(is >> g)) return Fail(error, "truncated node_cluster");
    index.node_cluster_.push_back(g);
  }
  if (!Expect(is, "node_rt", error) || !(is >> count) ||
      count > kMaxListLength) {
    return Fail(error, "bad node_rt header");
  }
  SafeReserve(index.node_rt_, count);
  for (uint64_t i = 0; i < count; ++i) {
    float rt = 0.0f;
    if (!(is >> rt)) return Fail(error, "truncated node_rt");
    index.node_rt_.push_back(rt);
  }
  // Both per-node arrays span the same id space; a mismatch would leave
  // node_rt_ reads out of bounds for valid node ids after load.
  if (index.node_rt_.size() != index.node_cluster_.size()) {
    return Fail(error, "node_rt/node_cluster count mismatch");
  }

  if (!Expect(is, "clusters", error) || !(is >> count) ||
      count > kMaxListLength) {
    return Fail(error, "bad clusters header");
  }
  SafeReserve(index.clusters_, count);
  std::vector<std::vector<TlEntry>> tls;
  SafeReserve(tls, count);
  for (uint64_t g = 0; g < count; ++g) {
    Cluster& c = index.clusters_.emplace_back();
    std::vector<TlEntry>& tl = tls.emplace_back();
    if (!Expect(is, "cluster", error)) return false;
    if (!(is >> c.center >> c.representative >> c.rep_rt_m)) {
      return Fail(error, "bad cluster line");
    }
    uint64_t n = 0;
    if (!Expect(is, "sites", error) || !(is >> n) || n > kMaxListLength) {
      return Fail(error, "bad sites header");
    }
    SafeReserve(c.sites, n);
    for (uint64_t i = 0; i < n; ++i) {
      tops::SiteId s = 0;
      if (!(is >> s)) return Fail(error, "truncated sites");
      c.sites.push_back(s);
    }
    if (!Expect(is, "tl", error) || !(is >> n) || n > kMaxListLength) {
      return Fail(error, "bad tl header");
    }
    SafeReserve(tl, n);
    for (uint64_t i = 0; i < n; ++i) {
      TlEntry e{};
      if (!(is >> e.traj >> e.dr_m)) return Fail(error, "truncated tl");
      tl.push_back(e);
    }
    if (!Expect(is, "cl", error) || !(is >> n) || n > kMaxListLength) {
      return Fail(error, "bad cl header");
    }
    SafeReserve(c.cl, n);
    for (uint64_t i = 0; i < n; ++i) {
      ClEntry e{};
      if (!(is >> e.cluster >> e.dr_m)) return Fail(error, "truncated cl");
      c.cl.push_back(e);
    }
  }

  if (!Expect(is, "seqs", error) || !(is >> count) || count > kMaxListLength) {
    return Fail(error, "bad seqs header");
  }
  std::vector<std::vector<uint32_t>> seqs;
  SafeReserve(seqs, count);
  for (uint64_t si = 0; si < count; ++si) {
    std::vector<uint32_t>& seq = seqs.emplace_back();
    uint64_t len = 0;
    if (!(is >> len) || len > kMaxListLength) {
      return Fail(error, "truncated seqs");
    }
    SafeReserve(seq, len);
    for (uint64_t i = 0; i < len; ++i) {
      uint32_t g = 0;
      if (!(is >> g)) return Fail(error, "truncated seq entries");
      if (g >= index.clusters_.size()) {
        return Fail(error, "cluster id out of range in sequence");
      }
      seq.push_back(g);
    }
  }
  if (!Expect(is, "removed", error) || !(is >> count) ||
      count > kMaxListLength) {
    return Fail(error, "bad removed header");
  }
  SafeReserve(index.site_removed_, count);
  for (uint64_t i = 0; i < count; ++i) {
    int bit = 0;
    if (!(is >> bit)) return Fail(error, "truncated removed");
    index.site_removed_.push_back(bit != 0);
  }
  index.FreezePostings(tls, seqs);
  if (!ValidateInstanceStructure(index, error)) return false;
  *out = std::move(index);
  return true;
}

// ---------------------------------------------------------------------------
// ClusterIndex — v2 binary blob
//
// Layout (offsets relative to the blob start, arrays 8-aligned):
//   scalars: config + stats + counts (see WriteBinary)
//   array descriptor table: kNumArrays x {u64 offset, u64 bytes}
//   arrays, in descriptor order
// ---------------------------------------------------------------------------

namespace {

// Descriptor order of the per-instance arrays.
enum InstanceArray : size_t {
  kArrNodeCluster = 0,  // u32[num_nodes]
  kArrNodeRt,           // f32[num_nodes]
  kArrCenters,          // u32[num_clusters]
  kArrRepresentatives,  // u32[num_clusters]
  kArrRepRt,            // f32[num_clusters]
  kArrSitesOffsets,     // u64[num_clusters + 1]
  kArrSitesData,        // u32[total sites]
  kArrClOffsets,        // u64[num_clusters + 1]
  kArrClData,           // ClEntry[total cl]
  kArrTlOffsets,        // v2: u64[num_clusters + 1]; v3: Elias–Fano bytes
  kArrTlData,           // varint arena bytes (v2 flat / v3 blocked)
  kArrCcOffsets,        // v2: u64[num_seqs + 1]; v3: Elias–Fano bytes
  kArrCcData,           // varint arena bytes (v2 flat / v3 blocked)
  kArrSiteRemoved,      // u8[ceil(num_site_flags / 8)]
  kNumArrays,
};

static_assert(sizeof(ClEntry) == 8 && std::is_trivially_copyable_v<ClEntry>);

// Copies a POD array out of a (possibly unaligned) byte block.
template <typename T>
bool CopyArray(const store::ByteBlock& block, size_t expected_count,
               std::vector<T>* out, std::string* error, const char* what) {
  if (block.size() != expected_count * sizeof(T)) {
    return Fail(error, util::StrFormat("array '%s': %zu bytes, want %zu", what,
                                       block.size(),
                                       expected_count * sizeof(T)));
  }
  out->resize(expected_count);
  if (expected_count > 0) {
    std::memcpy(out->data(), block.data(), block.size());
  }
  return true;
}

}  // namespace

void ClusterIndex::WriteBinary(store::ByteWriter& out,
                               store::ListLayout layout) const {
  // Pristine instances (no Sec. 6 updates since freeze — the common
  // snapshot-shipping path) whose in-memory arenas already use the target
  // layout emit their frozen arena blocks verbatim. Otherwise
  // canonicalize: fold overlays/tombstones into fresh arenas in the
  // target layout, so the file holds exactly the live postings (this also
  // covers cross-version conversion, e.g. a v2-loaded flat index written
  // as v3 blocked). Encoding is deterministic, so both paths produce
  // identical bytes for identical live postings and layout.
  const bool pristine =
      cc_overlay_.empty() && cc_removed_.empty() &&
      cc_count_ == cc_arena_.num_lists() &&
      tl_arena_.layout() == layout && cc_arena_.layout() == layout &&
      std::all_of(clusters_.begin(), clusters_.end(),
                  [](const Cluster& c) { return !c.tl.has_overlay(); });
  store::PostingArena tl = tl_arena_;
  store::PostingArena cc = cc_arena_;
  if (!pristine) {
    store::PostingArenaBuilder tl_builder(layout);
    for (const Cluster& c : clusters_) {
      tl_builder.AddPairList(c.tl.Materialize());
    }
    tl = tl_builder.Finish();
    store::PostingArenaBuilder cc_builder(layout);
    for (traj::TrajId t = 0; t < cc_count_; ++t) {
      cc_builder.AddU32List(cluster_sequence(t));
    }
    cc = cc_builder.Finish();
  }

  out.F64(config_.radius_m);
  out.F64(config_.gamma);
  out.U32(static_cast<uint32_t>(config_.gdsp_strategy));
  out.U32(config_.fm_copies);
  out.U32(static_cast<uint32_t>(config_.representative_rule));
  out.U32(0);  // pad
  out.F64(stats_.gdsp_seconds);
  out.F64(stats_.build_seconds);
  out.F64(stats_.mean_dominating_set_size);
  out.F64(stats_.mean_tl_size);
  out.F64(stats_.mean_cl_size);
  out.U64(stats_.compressed_postings);
  out.U64(stats_.raw_postings);
  out.U64(node_cluster_.size());
  out.U64(clusters_.size());
  out.U64(cc_count_);
  out.U64(site_removed_.size());

  const size_t table_pos = out.Reserve(kNumArrays * 2 * sizeof(uint64_t));
  size_t next = 0;
  auto put_array = [&](const void* data, size_t bytes) {
    out.Align8();
    out.PatchU64(table_pos + next * 2 * sizeof(uint64_t), out.size());
    out.PatchU64(table_pos + (next * 2 + 1) * sizeof(uint64_t), bytes);
    out.Bytes(data, bytes);
    ++next;
  };

  put_array(node_cluster_.data(), node_cluster_.size() * sizeof(uint32_t));
  put_array(node_rt_.data(), node_rt_.size() * sizeof(float));

  std::vector<uint32_t> centers(clusters_.size()), reps(clusters_.size());
  std::vector<float> rep_rt(clusters_.size());
  std::vector<uint64_t> sites_offsets(clusters_.size() + 1, 0);
  std::vector<uint32_t> sites_data;
  std::vector<uint64_t> cl_offsets(clusters_.size() + 1, 0);
  std::vector<ClEntry> cl_data;
  for (size_t g = 0; g < clusters_.size(); ++g) {
    const Cluster& c = clusters_[g];
    centers[g] = c.center;
    reps[g] = c.representative;
    rep_rt[g] = c.rep_rt_m;
    sites_data.insert(sites_data.end(), c.sites.begin(), c.sites.end());
    sites_offsets[g + 1] = sites_data.size();
    cl_data.insert(cl_data.end(), c.cl.begin(), c.cl.end());
    cl_offsets[g + 1] = cl_data.size();
  }
  put_array(centers.data(), centers.size() * sizeof(uint32_t));
  put_array(reps.data(), reps.size() * sizeof(uint32_t));
  put_array(rep_rt.data(), rep_rt.size() * sizeof(float));
  put_array(sites_offsets.data(), sites_offsets.size() * sizeof(uint64_t));
  put_array(sites_data.data(), sites_data.size() * sizeof(uint32_t));
  put_array(cl_offsets.data(), cl_offsets.size() * sizeof(uint64_t));
  put_array(cl_data.data(), cl_data.size() * sizeof(ClEntry));

  put_array(tl.offsets_block().data(), tl.offsets_block().size());
  put_array(tl.data_block().data(), tl.data_block().size());
  put_array(cc.offsets_block().data(), cc.offsets_block().size());
  put_array(cc.data_block().data(), cc.data_block().size());

  std::vector<uint8_t> removed_bits((site_removed_.size() + 7) / 8, 0);
  for (size_t i = 0; i < site_removed_.size(); ++i) {
    if (site_removed_[i]) removed_bits[i / 8] |= 1u << (i % 8);
  }
  put_array(removed_bits.data(), removed_bits.size());
}

bool ClusterIndex::ReadBinary(store::ByteReader& in, store::ListLayout layout,
                              ClusterIndex* out, std::string* error) {
  ClusterIndex index;
  index.config_.radius_m = in.F64();
  index.config_.gamma = in.F64();
  index.config_.gdsp_strategy = static_cast<GdspStrategy>(in.U32());
  index.config_.fm_copies = in.U32();
  index.config_.representative_rule = static_cast<RepresentativeRule>(in.U32());
  in.U32();  // pad
  index.stats_.gdsp_seconds = in.F64();
  index.stats_.build_seconds = in.F64();
  index.stats_.mean_dominating_set_size = in.F64();
  index.stats_.mean_tl_size = in.F64();
  index.stats_.mean_cl_size = in.F64();
  index.stats_.compressed_postings = in.U64();
  index.stats_.raw_postings = in.U64();
  const uint64_t num_nodes = in.U64();
  const uint64_t num_clusters = in.U64();
  const uint64_t num_seqs = in.U64();
  const uint64_t num_site_flags = in.U64();
  if (!in.ok() || num_nodes > kMaxListLength ||
      num_clusters > kMaxListLength || num_seqs > kMaxListLength ||
      num_site_flags > kMaxListLength) {
    return Fail(error, "instance blob: bad scalar header");
  }

  struct Descriptor {
    uint64_t offset = 0;
    uint64_t bytes = 0;
  };
  Descriptor table[kNumArrays];
  for (auto& d : table) {
    d.offset = in.U64();
    d.bytes = in.U64();
  }
  if (!in.ok()) return Fail(error, "instance blob: truncated array table");
  store::ByteBlock arrays[kNumArrays];
  for (size_t i = 0; i < kNumArrays; ++i) {
    arrays[i] = in.SubBlock(table[i].offset, table[i].bytes);
    if (!in.ok()) {
      return Fail(error,
                  util::StrFormat("instance blob: array %zu out of bounds", i));
    }
  }

  if (!CopyArray(arrays[kArrNodeCluster], num_nodes, &index.node_cluster_,
                 error, "node_cluster") ||
      !CopyArray(arrays[kArrNodeRt], num_nodes, &index.node_rt_, error,
                 "node_rt")) {
    return false;
  }
  std::vector<uint32_t> centers, reps, sites_data;
  std::vector<float> rep_rt;
  std::vector<uint64_t> sites_offsets, cl_offsets;
  std::vector<ClEntry> cl_data;
  if (!CopyArray(arrays[kArrCenters], num_clusters, &centers, error,
                 "centers") ||
      !CopyArray(arrays[kArrRepresentatives], num_clusters, &reps, error,
                 "representatives") ||
      !CopyArray(arrays[kArrRepRt], num_clusters, &rep_rt, error, "rep_rt") ||
      !CopyArray(arrays[kArrSitesOffsets], num_clusters + 1, &sites_offsets,
                 error, "sites_offsets") ||
      !CopyArray(arrays[kArrClOffsets], num_clusters + 1, &cl_offsets, error,
                 "cl_offsets")) {
    return false;
  }
  const uint64_t total_sites = sites_offsets.back();
  const uint64_t total_cl = cl_offsets.back();
  if (total_sites > kMaxListLength || total_cl > kMaxListLength) {
    return Fail(error, "instance blob: implausible list totals");
  }
  if (!CopyArray(arrays[kArrSitesData], total_sites, &sites_data, error,
                 "sites_data") ||
      !CopyArray(arrays[kArrClData], total_cl, &cl_data, error, "cl_data")) {
    return false;
  }
  for (size_t g = 0; g < num_clusters; ++g) {
    if (sites_offsets[g] > sites_offsets[g + 1] ||
        cl_offsets[g] > cl_offsets[g + 1]) {
      return Fail(error, "instance blob: non-monotonic offsets");
    }
  }

  // Posting arenas alias the file block zero-copy; FromBlocks validates
  // every varint stream before anything trusts them.
  if (!store::PostingArena::FromBlocks(
          arrays[kArrTlData], arrays[kArrTlOffsets], num_clusters,
          store::ListKind::kPair, layout, &index.tl_arena_, error) ||
      !store::PostingArena::FromBlocks(
          arrays[kArrCcData], arrays[kArrCcOffsets], num_seqs,
          store::ListKind::kU32, layout, &index.cc_arena_, error)) {
    return false;
  }
  index.cc_count_ = num_seqs;

  index.clusters_.resize(num_clusters);
  for (size_t g = 0; g < num_clusters; ++g) {
    Cluster& c = index.clusters_[g];
    c.center = centers[g];
    c.representative = reps[g];
    c.rep_rt_m = rep_rt[g];
    c.sites.assign(sites_data.begin() + sites_offsets[g],
                   sites_data.begin() + sites_offsets[g + 1]);
    c.cl.assign(cl_data.begin() + cl_offsets[g],
                cl_data.begin() + cl_offsets[g + 1]);
    c.tl.Freeze(index.tl_arena_.PairList<TlEntry>(g),
                index.tl_arena_.pool());
  }

  const store::ByteBlock& removed = arrays[kArrSiteRemoved];
  if (removed.size() != (num_site_flags + 7) / 8) {
    return Fail(error, "instance blob: bad site_removed bitmap");
  }
  index.site_removed_.resize(num_site_flags);
  for (size_t i = 0; i < num_site_flags; ++i) {
    index.site_removed_[i] = (removed.data()[i / 8] >> (i % 8)) & 1;
  }

  // CC entries must reference clusters of this instance.
  for (traj::TrajId t = 0; t < index.cc_count_; ++t) {
    for (const uint32_t g : index.cluster_sequence_view(t)) {
      if (g >= num_clusters) {
        return Fail(error, "cluster id out of range in sequence");
      }
    }
  }
  if (!ValidateInstanceStructure(index, error)) return false;
  *out = std::move(index);
  return true;
}

// ---------------------------------------------------------------------------
// MultiIndex — v1 text
// ---------------------------------------------------------------------------

void WriteIndex(const MultiIndex& index, std::ostream& os) {
  WriteIndex(index, nullptr, os);
}

void WriteIndex(const MultiIndex& index,
                const graph::spf::DistanceBackend* backend, std::ostream& os) {
  os << std::setprecision(12);
  os << "netclus-index v1\n";
  os << "meta " << index.config_.gamma << " " << index.tau_min_ << " "
     << index.tau_max_ << " " << index.build_seconds_ << " "
     << index.instances_.size() << "\n";
  size_t nodes = 0;
  size_t trajs = 0;
  if (!index.instances_.empty()) {
    nodes = index.instances_[0]->num_nodes();
    trajs = index.instances_[0]->num_sequences();
  }
  os << "corpus " << nodes << " " << trajs << "\n";
  for (const auto& instance : index.instances_) instance->WriteTo(os);
  if (backend != nullptr) {
    os << "backend " << graph::spf::BackendName(backend->kind()) << "\n";
    if (backend->kind() == graph::spf::BackendKind::kContractionHierarchies) {
      static_cast<const graph::spf::ContractionHierarchy*>(backend)->WriteTo(
          os);
    }
  }
  os << "end\n";
}

bool ReadIndex(std::istream& is, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error) {
  return ReadIndex(is, expected_nodes, expected_trajectories, index, error,
                   nullptr, nullptr);
}

bool ReadIndex(std::istream& is, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error, const graph::RoadNetwork* net,
               std::shared_ptr<const graph::spf::DistanceBackend>* backend) {
  std::string header;
  std::getline(is, header);
  if (util::Trim(header) != "netclus-index v1") {
    return Fail(error, "missing/unknown index header");
  }
  MultiIndex loaded;
  uint64_t instances = 0;
  if (!Expect(is, "meta", error)) return false;
  if (!(is >> loaded.config_.gamma >> loaded.tau_min_ >> loaded.tau_max_ >>
        loaded.build_seconds_ >> instances)) {
    return Fail(error, "bad meta line");
  }
  if (instances > kMaxInstances) {
    return Fail(error, "implausible instance count");
  }
  size_t nodes = 0, trajs = 0;
  if (!Expect(is, "corpus", error) || !(is >> nodes >> trajs)) {
    return Fail(error, "bad corpus line");
  }
  if (nodes != expected_nodes) {
    return Fail(error,
                util::StrFormat("index built over %zu nodes, corpus has %zu",
                                nodes, expected_nodes));
  }
  if (trajs > expected_trajectories) {
    return Fail(error, util::StrFormat(
                           "index references %zu trajectories, corpus has %zu",
                           trajs, expected_trajectories));
  }
  for (size_t p = 0; p < instances; ++p) {
    auto instance = std::make_unique<ClusterIndex>();
    if (!ClusterIndex::ReadFrom(is, instance.get(), error)) return false;
    // Every instance must span the live corpus: the query engine indexes
    // per-node and per-trajectory arrays by live ids, so an instance with
    // its own (file-controlled) smaller id space would read out of bounds
    // at query time.
    if (instance->num_nodes() != expected_nodes) {
      return Fail(error, "instance node count mismatch");
    }
    if (instance->num_sequences() > expected_trajectories) {
      return Fail(error, "instance trajectory count mismatch");
    }
    loaded.instances_.push_back(std::move(instance));
  }
  std::string tail;
  if (!(is >> tail)) return Fail(error, "truncated index (missing end)");
  if (tail == "backend") {
    std::string name;
    if (!(is >> name)) return Fail(error, "truncated backend section");
    const std::optional<graph::spf::BackendKind> kind =
        graph::spf::ParseBackendName(name);
    if (!kind.has_value()) return Fail(error, "unknown backend: " + name);
    if (*kind == graph::spf::BackendKind::kContractionHierarchies) {
      if (net == nullptr || backend == nullptr) {
        // Caller has no network to validate against: skip reconstruction
        // but still consume the payload so "end" parses.
        std::string token;
        while (is >> token && token != "end_ch") {
        }
        if (token != "end_ch") return Fail(error, "truncated ch payload");
      } else {
        std::unique_ptr<graph::spf::ContractionHierarchy> ch;
        if (!graph::spf::ContractionHierarchy::ReadFrom(is, net, &ch, error)) {
          return false;
        }
        *backend = std::move(ch);
      }
    } else if (net != nullptr && backend != nullptr) {
      *backend = graph::spf::MakeBackend(*kind, net);
    }
    if (!Expect(is, "end", error)) return false;
  } else if (tail != "end") {
    return Fail(error, "expected 'end', got '" + tail + "'");
  }
  *index = std::move(loaded);
  return true;
}

// ---------------------------------------------------------------------------
// MultiIndex — v2 binary
//
// File layout (all little-endian; see docs/index_format.md):
//   header  : magic "NCIXBIN2", endian probe, version, file size,
//             section-table offset, section count
//   sections: 8-aligned payloads (meta, one per instance, optional
//             backend)
//   table   : per-section {kind, offset, bytes, FNV-1a checksum}
// ---------------------------------------------------------------------------

namespace {

constexpr char kV2Magic[8] = {'N', 'C', 'I', 'X', 'B', 'I', 'N', '2'};
constexpr char kV3Magic[8] = {'N', 'C', 'I', 'X', 'B', 'I', 'N', '3'};
constexpr uint32_t kEndianProbe = 0x01020304;
constexpr uint32_t kV2Version = 2;
constexpr uint32_t kV3Version = 3;

// The arena wire layout is the only difference between the v2 and v3
// containers: v2 files hold flat varint streams with plain u64 offset
// tables, v3 files hold 128-entry blocked streams with Elias–Fano offsets.
store::ListLayout LayoutForVersion(uint32_t version) {
  return version >= kV3Version ? store::ListLayout::kBlocked
                               : store::ListLayout::kFlat;
}

enum SectionKind : uint32_t {
  kSectionMeta = 1,
  kSectionInstance = 2,
  kSectionBackend = 3,
};

struct Section {
  uint32_t kind = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

}  // namespace

bool IsV2IndexImage(const uint8_t* data, size_t size) {
  return size >= sizeof(kV2Magic) &&
         std::memcmp(data, kV2Magic, sizeof(kV2Magic)) == 0;
}

bool IsBinaryIndexImage(const uint8_t* data, size_t size) {
  return IsV2IndexImage(data, size) ||
         (size >= sizeof(kV3Magic) &&
          std::memcmp(data, kV3Magic, sizeof(kV3Magic)) == 0);
}

namespace {

// Produces the v2 sections one at a time through `emit(kind, payload)`,
// so the streaming writer below holds at most one section's bytes in
// memory at once (the whole-image transient of a country-scale index
// would rival the index itself). Uses only the public MultiIndex API.
template <typename Emit>
void ForEachV2Section(const MultiIndex& index,
                      const graph::spf::DistanceBackend* backend,
                      store::ListLayout layout, Emit&& emit) {
  {
    store::ByteWriter meta;
    meta.F64(index.gamma());
    meta.F64(index.tau_min_m());
    meta.F64(index.tau_max_m());
    meta.F64(index.build_seconds());
    meta.U64(index.num_instances());
    size_t nodes = 0, trajs = 0;
    if (index.num_instances() > 0) {
      nodes = index.instance(0).num_nodes();
      trajs = index.instance(0).num_sequences();
    }
    meta.U64(nodes);
    meta.U64(trajs);
    emit(kSectionMeta, meta.TakeBytes());
  }
  for (size_t p = 0; p < index.num_instances(); ++p) {
    store::ByteWriter blob;
    index.instance(p).WriteBinary(blob, layout);
    emit(kSectionInstance, blob.TakeBytes());
  }
  if (backend != nullptr) {
    store::ByteWriter b;
    const std::string name = graph::spf::BackendName(backend->kind());
    b.U32(static_cast<uint32_t>(name.size()));
    b.Bytes(name.data(), name.size());
    std::string payload;
    if (backend->kind() == graph::spf::BackendKind::kContractionHierarchies) {
      std::ostringstream ch_text;
      static_cast<const graph::spf::ContractionHierarchy*>(backend)->WriteTo(
          ch_text);
      payload = std::move(ch_text).str();
    }
    b.U64(payload.size());
    b.Bytes(payload.data(), payload.size());
    emit(kSectionBackend, b.TakeBytes());
  }
}

}  // namespace

namespace {

void WriteIndexBinary(const MultiIndex& index,
                      const graph::spf::DistanceBackend* backend,
                      uint32_t version, std::ostream& os) {
  auto put_u32 = [&os](uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto put_u64 = [&os](uint64_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  os.write(version >= kV3Version ? kV3Magic : kV2Magic, sizeof(kV2Magic));
  put_u32(kEndianProbe);
  put_u32(version);
  const std::streampos file_size_pos = os.tellp();
  put_u64(0);  // file size, patched below
  const std::streampos table_offset_pos = os.tellp();
  put_u64(0);  // section-table offset, patched below
  const uint32_t section_count = static_cast<uint32_t>(
      1 + index.num_instances() + (backend != nullptr ? 1 : 0));
  put_u32(section_count);
  put_u32(0);  // pad

  uint64_t pos = 40;  // bytes written so far (the fixed header)
  std::vector<Section> sections;
  auto align8 = [&] {
    while (pos % 8 != 0) {
      os.put(0);
      ++pos;
    }
  };
  ForEachV2Section(index, backend, LayoutForVersion(version),
                   [&](uint32_t kind, std::vector<uint8_t> payload) {
                     align8();
                     Section s;
                     s.kind = kind;
                     s.offset = pos;
                     s.bytes = payload.size();
                     s.checksum =
                         store::Fnv1a64(payload.data(), payload.size());
                     os.write(reinterpret_cast<const char*>(payload.data()),
                              static_cast<std::streamsize>(payload.size()));
                     pos += payload.size();
                     sections.push_back(s);
                   });

  align8();
  const uint64_t table_offset = pos;
  for (const Section& s : sections) {
    put_u32(s.kind);
    put_u32(0);
    put_u64(s.offset);
    put_u64(s.bytes);
    put_u64(s.checksum);
    pos += 32;
  }
  os.seekp(file_size_pos);
  put_u64(pos);
  os.seekp(table_offset_pos);
  put_u64(table_offset);
  os.seekp(0, std::ios::end);
}

}  // namespace

void WriteIndexV2(const MultiIndex& index,
                  const graph::spf::DistanceBackend* backend,
                  std::ostream& os) {
  WriteIndexBinary(index, backend, kV2Version, os);
}

void WriteIndexV3(const MultiIndex& index,
                  const graph::spf::DistanceBackend* backend,
                  std::ostream& os) {
  WriteIndexBinary(index, backend, kV3Version, os);
}

std::vector<uint8_t> EncodeIndexV2(const MultiIndex& index,
                                   const graph::spf::DistanceBackend* backend) {
  std::ostringstream buffer;
  WriteIndexV2(index, backend, buffer);
  const std::string bytes = std::move(buffer).str();
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

std::vector<uint8_t> EncodeIndexV3(const MultiIndex& index,
                                   const graph::spf::DistanceBackend* backend) {
  std::ostringstream buffer;
  WriteIndexV3(index, backend, buffer);
  const std::string bytes = std::move(buffer).str();
  return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

bool ReadIndexV2(store::ByteBlock block, size_t expected_nodes,
                 size_t expected_trajectories, MultiIndex* index,
                 std::string* error, const graph::RoadNetwork* net,
                 std::shared_ptr<const graph::spf::DistanceBackend>* backend) {
  store::ByteReader header(block);
  char magic[sizeof(kV2Magic)] = {};
  if (!header.Bytes(magic, sizeof(magic)) ||
      !IsBinaryIndexImage(reinterpret_cast<const uint8_t*>(magic),
                          sizeof(magic))) {
    return Fail(error, "missing/unknown binary index magic");
  }
  const uint32_t magic_version =
      std::memcmp(magic, kV3Magic, sizeof(magic)) == 0 ? kV3Version
                                                       : kV2Version;
  if (header.U32() != kEndianProbe) {
    return Fail(error, "endianness mismatch or corrupt header");
  }
  // The version field must agree with the magic — a mismatch means a
  // corrupt or hand-edited header, not a future format.
  if (header.U32() != magic_version) {
    return Fail(error, "unsupported index format version");
  }
  const store::ListLayout layout = LayoutForVersion(magic_version);
  const uint64_t file_size = header.U64();
  const uint64_t table_offset = header.U64();
  const uint32_t section_count = header.U32();
  header.U32();  // pad
  if (!header.ok() || file_size != block.size()) {
    return Fail(error, "truncated index file (size mismatch)");
  }
  if (section_count > kMaxInstances + 2) {
    return Fail(error, "implausible section count");
  }
  constexpr size_t kSectionEntryBytes = 32;
  store::ByteReader table(header.SubBlock(
      table_offset, static_cast<uint64_t>(section_count) * kSectionEntryBytes));
  if (!header.ok()) return Fail(error, "section table out of bounds");

  std::vector<Section> sections(section_count);
  for (Section& s : sections) {
    s.kind = table.U32();
    table.U32();  // pad
    s.offset = table.U64();
    s.bytes = table.U64();
    s.checksum = table.U64();
  }
  if (!table.ok()) return Fail(error, "truncated section table");
  for (const Section& s : sections) {
    if (s.offset > block.size() || s.bytes > block.size() - s.offset) {
      return Fail(error, "section out of bounds");
    }
    if (store::Fnv1a64(block.data() + s.offset, s.bytes) != s.checksum) {
      return Fail(error, util::StrFormat(
                             "checksum mismatch in section kind %u (corrupt "
                             "or truncated file)",
                             s.kind));
    }
  }

  MultiIndex loaded;
  size_t nodes = 0, trajs = 0;
  uint64_t declared_instances = 0;
  bool saw_meta = false;
  for (const Section& s : sections) {
    store::ByteReader r(block.Slice(s.offset, s.bytes));
    switch (s.kind) {
      case kSectionMeta: {
        loaded.config_.gamma = r.F64();
        loaded.tau_min_ = r.F64();
        loaded.tau_max_ = r.F64();
        loaded.build_seconds_ = r.F64();
        declared_instances = r.U64();
        nodes = r.U64();
        trajs = r.U64();
        if (!r.ok()) return Fail(error, "bad meta section");
        if (nodes != expected_nodes) {
          return Fail(error, util::StrFormat(
                                 "index built over %zu nodes, corpus has %zu",
                                 nodes, expected_nodes));
        }
        if (trajs > expected_trajectories) {
          return Fail(error,
                      util::StrFormat(
                          "index references %zu trajectories, corpus has %zu",
                          trajs, expected_trajectories));
        }
        saw_meta = true;
        break;
      }
      case kSectionInstance: {
        auto instance = std::make_unique<ClusterIndex>();
        if (!ClusterIndex::ReadBinary(r, layout, instance.get(), error)) {
          return false;
        }
        // Cross-check the blob's self-declared id spaces against the live
        // corpus (not just the meta section): ids validated only against
        // file-controlled sizes would still index live-sized arrays out
        // of bounds at query time.
        if (instance->num_nodes() != expected_nodes) {
          return Fail(error, "instance node count mismatch");
        }
        if (instance->num_sequences() > expected_trajectories) {
          return Fail(error, "instance trajectory count mismatch");
        }
        loaded.instances_.push_back(std::move(instance));
        break;
      }
      case kSectionBackend: {
        const uint32_t name_len = r.U32();
        if (!r.ok() || name_len > 64) {
          return Fail(error, "bad backend section");
        }
        std::string name(name_len, '\0');
        if (!r.Bytes(name.data(), name_len)) {
          return Fail(error, "truncated backend name");
        }
        const uint64_t payload_len = r.U64();
        if (!r.ok() || payload_len > r.remaining()) {
          return Fail(error, "truncated backend payload");
        }
        const std::optional<graph::spf::BackendKind> kind =
            graph::spf::ParseBackendName(name);
        if (!kind.has_value()) return Fail(error, "unknown backend: " + name);
        if (net == nullptr || backend == nullptr) break;  // caller opted out
        if (*kind == graph::spf::BackendKind::kContractionHierarchies) {
          std::string payload(static_cast<size_t>(payload_len), '\0');
          r.Bytes(payload.data(), payload.size());
          std::istringstream ch_text(std::move(payload));
          std::unique_ptr<graph::spf::ContractionHierarchy> ch;
          if (!graph::spf::ContractionHierarchy::ReadFrom(ch_text, net, &ch,
                                                          error)) {
            return false;
          }
          *backend = std::move(ch);
        } else {
          *backend = graph::spf::MakeBackend(*kind, net);
        }
        break;
      }
      default:
        return Fail(error,
                    util::StrFormat("unknown section kind %u", s.kind));
    }
  }
  if (!saw_meta) return Fail(error, "missing meta section");
  if (loaded.instances_.size() != declared_instances) {
    return Fail(error, "instance count mismatch");
  }
  *index = std::move(loaded);
  return true;
}

// ---------------------------------------------------------------------------
// File wrappers
// ---------------------------------------------------------------------------

bool SaveIndex(const MultiIndex& index, const std::string& path,
               std::string* error, IndexFileFormat format) {
  return SaveIndex(index, nullptr, path, error, format);
}

bool SaveIndex(const MultiIndex& index,
               const graph::spf::DistanceBackend* backend,
               const std::string& path, std::string* error,
               IndexFileFormat format) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Fail(error, "cannot open for write: " + path);
  if (format == IndexFileFormat::kTextV1) {
    WriteIndex(index, backend, out);
  } else if (format == IndexFileFormat::kBinaryV2) {
    WriteIndexV2(index, backend, out);  // streams section by section
  } else {
    WriteIndexV3(index, backend, out);  // streams section by section
  }
  if (!out) return Fail(error, "write failed: " + path);
  return true;
}

bool LoadIndex(const std::string& path, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error) {
  return LoadIndex(path, expected_nodes, expected_trajectories, index, error,
                   nullptr, nullptr, IndexLoadMode::kAuto);
}

bool LoadIndex(const std::string& path, size_t expected_nodes,
               size_t expected_trajectories, MultiIndex* index,
               std::string* error, const graph::RoadNetwork* net,
               std::shared_ptr<const graph::spf::DistanceBackend>* backend,
               IndexLoadMode mode) {
  // Sniff the magic so all formats load through one entry point.
  char magic[sizeof(kV2Magic)] = {};
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) return Fail(error, "cannot open for read: " + path);
    probe.read(magic, sizeof(magic));
    if (probe.gcount() < static_cast<std::streamsize>(sizeof(magic)) ||
        !IsBinaryIndexImage(reinterpret_cast<const uint8_t*>(magic),
                            sizeof(magic))) {
      std::ifstream in(path);
      if (!in) return Fail(error, "cannot open for read: " + path);
      return ReadIndex(in, expected_nodes, expected_trajectories, index, error,
                       net, backend);
    }
  }

  bool use_mmap = mode == IndexLoadMode::kMmap;
  if (mode == IndexLoadMode::kAuto) {
    use_mmap = util::GetEnvInt("NETCLUS_INDEX_MMAP", 1) != 0;
  }
  store::ByteBlock block;
  store::BufferPool* pool = nullptr;
  if (use_mmap) {
    std::string mmap_error;
    // NETCLUS_PAGE_BUDGET caps mapping residency (buffer_pool.h); the
    // pool is owned by the MappedFile, which the arenas keep alive.
    if (auto mapped = store::MappedFile::Open(
            path, &mmap_error, store::BufferPool::BudgetFromEnv())) {
      pool = mapped->pool();
      block = store::MappedFile::Block(std::move(mapped));
    } else if (mode == IndexLoadMode::kMmap) {
      return Fail(error, mmap_error);
    }
  }
  if (block.empty()) {
    block = store::ReadFileBlock(path, error);
    if (block.empty()) return false;
  }
  if (!ReadIndexV2(std::move(block), expected_nodes, expected_trajectories,
                   index, error, net, backend)) {
    return false;
  }
  // Load-time validation touched (and its page faults made resident) the
  // whole mapping; evict back to a cold state so serving starts within
  // the page budget rather than at whatever validation left resident.
  if (pool != nullptr) pool->DropAll();
  return true;
}

}  // namespace netclus::index
