#include "netclus/cluster_index.h"

#include <algorithm>

#include "graph/dijkstra.h"
#include "store/buffer_pool.h"
#include "util/float_bits.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::index {

namespace {

using graph::NodeId;
using tops::SiteId;
using traj::TrajId;

// Per-trajectory TL/CC contribution, computed independently (and so safely
// in parallel) and committed in trajectory order.
struct TrajContribution {
  std::vector<uint32_t> seq;                      // CC(T)
  std::vector<std::pair<uint32_t, float>> best;   // (cluster, min d_r)
  size_t raw_postings = 0;
};

TrajContribution ComputeContribution(const traj::Trajectory& trajectory,
                                     const std::vector<uint32_t>& node_cluster,
                                     const std::vector<float>& node_rt) {
  TrajContribution out;
  out.raw_postings = trajectory.size();
  // One TL entry per distinct visited cluster, with the min round trip from
  // any member node of the trajectory inside that cluster.
  // Use a local (cluster -> best) map; trajectories touch few clusters.
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const NodeId v = trajectory.node(i);
    const uint32_t g = node_cluster[v];
    const float rt = node_rt[v];
    if (out.seq.empty() || out.seq.back() != g) out.seq.push_back(g);
    bool found = false;
    for (auto& [bg, bd] : out.best) {
      if (bg == g) {
        bd = std::min(bd, rt);
        found = true;
        break;
      }
    }
    if (!found) out.best.emplace_back(g, rt);
  }
  return out;
}

}  // namespace

ClusterIndex ClusterIndex::Build(const traj::TrajectoryStore& store,
                                 const tops::SiteSet& sites,
                                 const ClusterIndexConfig& config,
                                 const graph::spf::DistanceBackend* backend) {
  util::WallTimer timer;
  ClusterIndex index;
  index.config_ = config;
  const graph::RoadNetwork& net = store.network();

  // 1. GDSP clustering at radius R.
  GdspConfig gdsp_config;
  gdsp_config.radius_m = config.radius_m;
  gdsp_config.strategy = config.gdsp_strategy;
  gdsp_config.fm_copies = config.fm_copies;
  GdspResult gdsp = GreedyGdsp(net, gdsp_config, backend);
  index.stats_.gdsp_seconds = gdsp.build_seconds;
  index.stats_.mean_dominating_set_size = gdsp.mean_dominating_set_size;

  index.clusters_.resize(gdsp.centers.size());
  for (uint32_t g = 0; g < gdsp.centers.size(); ++g) {
    index.clusters_[g].center = gdsp.centers[g];
  }
  index.node_cluster_ = std::move(gdsp.assignment);
  index.node_rt_ = std::move(gdsp.rt_to_center);

  const unsigned threads = util::ResolveThreads(config.threads);

  // 2. Site membership and representatives. Election per cluster touches
  // only that cluster's record, so clusters run in parallel.
  index.site_removed_.assign(sites.size(), false);
  for (SiteId s = 0; s < sites.size(); ++s) {
    index.clusters_[index.node_cluster_[sites.node(s)]].sites.push_back(s);
  }
  util::ParallelFor(threads, index.clusters_.size(),
                    [&](size_t begin, size_t end) {
                      for (size_t g = begin; g < end; ++g) {
                        index.ElectRepresentative(store, sites,
                                                  static_cast<uint32_t>(g),
                                                  nullptr);
                      }
                    });

  // 3. Trajectory lists TL and compressed cluster sequences CC. The
  // per-trajectory contributions are independent; the TL appends scatter
  // across clusters and are committed sequentially in trajectory order, so
  // the lists are identical to a serial build. Contributions are produced
  // and committed in fixed windows so the transient footprint stays bounded
  // instead of holding a private copy of every trajectory's lists at once.
  // Lists accumulate in plain vectors and are frozen into the compressed
  // arenas in one pass at the end.
  constexpr size_t kCommitWindow = 8192;
  const size_t total = store.total_count();
  std::vector<std::vector<uint32_t>> seqs(total);
  std::vector<std::vector<TlEntry>> tls(index.clusters_.size());
  for (size_t base = 0; base < total; base += kCommitWindow) {
    const size_t count = std::min(kCommitWindow, total - base);
    std::vector<TrajContribution> contributions =
        util::ParallelMap<TrajContribution>(threads, count, [&](size_t i) {
          const TrajId t = static_cast<TrajId>(base + i);
          if (!store.is_alive(t)) return TrajContribution();
          return ComputeContribution(store.trajectory(t), index.node_cluster_,
                                     index.node_rt_);
        });
    for (size_t i = 0; i < count; ++i) {
      const TrajId t = static_cast<TrajId>(base + i);
      if (!store.is_alive(t)) continue;
      TrajContribution& c = contributions[i];
      index.stats_.raw_postings += c.raw_postings;
      index.stats_.compressed_postings += c.seq.size();
      seqs[t] = std::move(c.seq);
      for (const auto& [g, dr] : c.best) tls[g].push_back({t, dr});
    }
  }
  index.FreezePostings(tls, seqs);

  // 4. Neighbor lists CL: centers within round trip 4 R (1 + γ). Each
  // cluster's bounded search is independent; chunks carry their own engine.
  const double horizon = 4.0 * config.radius_m * (1.0 + config.gamma);
  std::vector<uint32_t> center_cluster(net.num_nodes(),
                                       std::numeric_limits<uint32_t>::max());
  for (uint32_t g = 0; g < index.clusters_.size(); ++g) {
    center_cluster[index.clusters_[g].center] = g;
  }
  // Coarse chunks: each carries its own engine with O(num_nodes) arrays,
  // and a single chunk when this build runs inline (serial, or nested on a
  // MultiIndex pool worker).
  const size_t cl_grain = util::CoarseGrain(threads, index.clusters_.size());
  util::ParallelFor(
      threads, index.clusters_.size(),
      [&](size_t begin, size_t end) {
        const std::unique_ptr<graph::spf::DistanceQuery> query =
            graph::spf::MakeQueryOrDijkstra(backend, &net);
        for (size_t g = begin; g < end; ++g) {
          const std::vector<graph::RoundTrip> rts =
              query->BoundedRoundTrip(index.clusters_[g].center, horizon);
          auto& cl = index.clusters_[g].cl;
          for (const graph::RoundTrip& rt : rts) {
            const uint32_t other = center_cluster[rt.node];
            if (other == std::numeric_limits<uint32_t>::max() ||
                other == static_cast<uint32_t>(g)) {
              continue;
            }
            cl.push_back({other, static_cast<float>(rt.total())});
          }
          std::sort(cl.begin(), cl.end(),
                    [](const ClEntry& a, const ClEntry& b) {
                      return a.dr_m < b.dr_m ||
                             (util::BitEqual(a.dr_m, b.dr_m) &&
                              a.cluster < b.cluster);
                    });
        }
      },
      cl_grain);

  // 5. Stats.
  uint64_t tl_total = 0, cl_total = 0;
  for (const Cluster& c : index.clusters_) {
    tl_total += c.tl.size();
    cl_total += c.cl.size();
  }
  const double eta = static_cast<double>(index.clusters_.size());
  index.stats_.mean_tl_size = eta == 0 ? 0.0 : static_cast<double>(tl_total) / eta;
  index.stats_.mean_cl_size = eta == 0 ? 0.0 : static_cast<double>(cl_total) / eta;
  index.stats_.build_seconds = timer.Seconds();
  return index;
}

void ClusterIndex::ElectRepresentative(const traj::TrajectoryStore& store,
                                       const tops::SiteSet& sites, uint32_t g,
                                       const std::vector<bool>* site_alive) {
  Cluster& cluster = clusters_[g];
  cluster.representative = tops::kInvalidSite;
  cluster.rep_rt_m = 0.0f;
  double best_key = 0.0;
  for (SiteId s : cluster.sites) {
    if (site_removed_[s]) continue;
    if (site_alive != nullptr && !(*site_alive)[s]) continue;
    const NodeId node = sites.node(s);
    double key;
    if (config_.representative_rule == RepresentativeRule::kClosestToCenter) {
      key = node_rt_[node];  // smaller is better
      if (cluster.representative == tops::kInvalidSite || key < best_key) {
        cluster.representative = s;
        cluster.rep_rt_m = static_cast<float>(key);
        best_key = key;
      }
    } else {
      // Most-frequented: larger posting count is better.
      key = static_cast<double>(store.postings(node).size());
      if (cluster.representative == tops::kInvalidSite || key > best_key) {
        cluster.representative = s;
        cluster.rep_rt_m = node_rt_[node];
        best_key = key;
      }
    }
  }
}

void TlList::TouchPool() const {
  pool_->Touch(frozen_.packed_begin(),
               static_cast<size_t>(frozen_.packed_end() -
                                   frozen_.packed_begin()));
}

void ClusterIndex::FreezePostings(const std::vector<std::vector<TlEntry>>& tls,
                                  const std::vector<std::vector<uint32_t>>& seqs) {
  store::PostingArenaBuilder tl_builder;
  for (const auto& list : tls) tl_builder.AddPairList(list);
  tl_arena_ = tl_builder.Finish();
  for (uint32_t g = 0; g < clusters_.size(); ++g) {
    clusters_[g].tl.Freeze(tl_arena_.PairList<TlEntry>(g),
                           tl_arena_.pool());
  }
  store::PostingArenaBuilder cc_builder;
  for (const auto& seq : seqs) cc_builder.AddU32List(seq);
  cc_arena_ = cc_builder.Finish();
  cc_count_ = seqs.size();
  cc_overlay_.clear();
  cc_removed_.clear();
}

store::PostingListView ClusterIndex::cluster_sequence_view(TrajId t) const {
  if (t >= cc_count_ || cc_removed_.count(t) != 0) return {};
  const auto it = cc_overlay_.find(t);
  if (it != cc_overlay_.end()) {
    return store::PostingListView::Raw(it->second.data(), it->second.size());
  }
  if (t < cc_arena_.num_lists()) return cc_arena_.U32List(t);
  return {};
}

void ClusterIndex::AddTrajectory(const traj::TrajectoryStore& store, TrajId t) {
  TrajContribution c =
      ComputeContribution(store.trajectory(t), node_cluster_, node_rt_);
  stats_.raw_postings += c.raw_postings;
  stats_.compressed_postings += c.seq.size();
  cc_removed_.erase(t);
  cc_overlay_[t] = std::move(c.seq);
  if (t >= cc_count_) cc_count_ = t + 1;
  for (const auto& [g, dr] : c.best) {
    clusters_[g].tl.Append({t, dr});
  }
}

void ClusterIndex::RemoveTrajectory(TrajId t) {
  if (t >= cc_count_) return;
  // Distinct clusters of the sequence (materialized before the tombstone
  // lands below).
  std::vector<uint32_t> distinct = cluster_sequence(t);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  for (uint32_t g : distinct) {
    clusters_[g].tl.Remove(t);
  }
  cc_overlay_.erase(t);
  if (t < cc_arena_.num_lists()) cc_removed_.insert(t);
}

void ClusterIndex::AddSite(const traj::TrajectoryStore& store,
                           const tops::SiteSet& sites, SiteId s) {
  if (site_removed_.size() <= s) site_removed_.resize(s + 1, false);
  site_removed_[s] = false;
  const NodeId node = sites.node(s);
  const uint32_t g = node_cluster_[node];
  Cluster& cluster = clusters_[g];
  if (std::find(cluster.sites.begin(), cluster.sites.end(), s) ==
      cluster.sites.end()) {
    cluster.sites.push_back(s);
  }
  // Representative maintenance: adopt the new site if it wins under the
  // configured rule.
  if (cluster.representative == tops::kInvalidSite) {
    cluster.representative = s;
    cluster.rep_rt_m = node_rt_[node];
    return;
  }
  if (config_.representative_rule == RepresentativeRule::kClosestToCenter) {
    if (node_rt_[node] < cluster.rep_rt_m) {
      cluster.representative = s;
      cluster.rep_rt_m = node_rt_[node];
    }
  } else {
    const size_t new_count = store.postings(node).size();
    const size_t old_count =
        store.postings(sites.node(cluster.representative)).size();
    if (new_count > old_count) {
      cluster.representative = s;
      cluster.rep_rt_m = node_rt_[node];
    }
  }
}

void ClusterIndex::RemoveSite(const traj::TrajectoryStore& store,
                              const tops::SiteSet& sites, SiteId s) {
  if (site_removed_.size() <= s) site_removed_.resize(s + 1, false);
  site_removed_[s] = true;
  const uint32_t g = node_cluster_[sites.node(s)];
  if (clusters_[g].representative == s) {
    ElectRepresentative(store, sites, g, nullptr);
  }
}

uint64_t ClusterIndex::MemoryBytes() const {
  uint64_t total = 0;
  for (const Cluster& c : clusters_) {
    total += sizeof(Cluster);
    total += util::VectorBytes(c.sites) + util::VectorBytes(c.cl);
  }
  total += util::VectorBytes(node_cluster_) + util::VectorBytes(node_rt_);
  total += PostingsBytesCompressed();
  total += site_removed_.capacity() / 8;
  return total;
}

uint64_t ClusterIndex::PostingsBytesCompressed() const {
  uint64_t total = tl_arena_.bytes() + cc_arena_.bytes();
  for (const Cluster& c : clusters_) total += c.tl.OverlayBytes();
  for (const auto& [t, seq] : cc_overlay_) {
    total += sizeof(t) + sizeof(seq) + util::VectorBytes(seq);
  }
  total += cc_removed_.size() * sizeof(traj::TrajId);
  return total;
}

uint64_t ClusterIndex::PostingsBytesRaw() const {
  // The pre-compression representation: one std::vector per CC sequence
  // and per TL list, full-width entries. Sizes come from the O(1) count
  // prefixes, so this never decodes entry payloads.
  uint64_t total =
      static_cast<uint64_t>(cc_count_) * sizeof(std::vector<uint32_t>);
  for (traj::TrajId t = 0; t < cc_count_; ++t) {
    total += cluster_sequence_view(t).size() * sizeof(uint32_t);
  }
  for (const Cluster& c : clusters_) {
    total += sizeof(std::vector<TlEntry>) + c.tl.size() * sizeof(TlEntry);
  }
  return total;
}

}  // namespace netclus::index
