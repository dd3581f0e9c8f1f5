#include "exec/cover_build.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "netclus/cluster_index.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace netclus::exec {

namespace {

using index::ClEntry;
using index::Cluster;
using index::ClusterIndex;
using index::TlEntry;
using tops::CoverEntry;
using tops::SiteId;
using traj::TrajId;

}  // namespace

BuiltCover BuildCover(const index::MultiIndex& index,
                      const traj::TrajectoryStore& store, double tau_m,
                      size_t instance_id, uint32_t threads) {
  util::WallTimer timer;
  const ClusterIndex& instance = index.instance(instance_id);

  // Representatives entering the clustered problem.
  std::vector<uint32_t> rep_cluster;  // clustered-space id -> cluster
  BuiltCover out;
  for (uint32_t g = 0; g < instance.num_clusters(); ++g) {
    const Cluster& cluster = instance.cluster(g);
    if (cluster.representative == tops::kInvalidSite) continue;
    rep_cluster.push_back(g);
    out.rep_sites.push_back(cluster.representative);
  }

  // T̂C per representative, chunked over representatives. Scratch (the
  // per-trajectory best estimate with stamping so that clearing is O(1) per
  // representative) is private to each chunk, and every representative's
  // cover depends only on the immutable index, so any chunk layout and
  // thread count produce the same covers.
  // Exactly one chunk per worker: the O(num_trajs) scratch arrays are the
  // dominant setup cost on this latency-critical path, so they must be
  // allocated at most `threads` times per query (and once when serial,
  // exactly as before the parallel subsystem).
  const size_t num_trajs = store.total_count();
  const unsigned t = util::ResolveThreads(threads);
  const size_t grain =
      util::CoarseGrain(threads, rep_cluster.size(), /*chunks_per_thread=*/1);

  std::vector<std::vector<CoverEntry>> covers(rep_cluster.size());
  util::ParallelFor(
      t, rep_cluster.size(),
      [&](size_t chunk_begin, size_t chunk_end) {
        std::vector<float> best(num_trajs, 0.0f);
        std::vector<uint32_t> stamp(num_trajs, 0);
        std::vector<TrajId> touched;
        uint32_t epoch = 0;

        for (size_t r = chunk_begin; r < chunk_end; ++r) {
          const uint32_t gi = rep_cluster[r];
          const Cluster& home = instance.cluster(gi);
          ++epoch;
          touched.clear();

          auto offer = [&](const TlEntry& e, float base) {
            const float est = e.dr_m + base;
            if (est > tau_m) return;
            if (stamp[e.traj] != epoch) {
              stamp[e.traj] = epoch;
              best[e.traj] = est;
              touched.push_back(e.traj);
            } else if (est < best[e.traj]) {
              best[e.traj] = est;
            }
          };

          // Home cluster: d̂_r = d_r(T, c_i) + d_r(c_i, r_i).
          home.tl.ForEach([&](const TlEntry& e) {
            if (store.is_alive(e.traj)) offer(e, home.rep_rt_m);
          });
          // Neighbor clusters:
          // d̂_r = d_r(T, c_j) + d_r(c_j, c_i) + d_r(c_i, r_i).
          for (const ClEntry& nb : home.cl) {
            const float base = nb.dr_m + home.rep_rt_m;
            if (base > tau_m) break;  // CL is distance-sorted: rest are worse
            instance.cluster(nb.cluster).tl.ForEach([&](const TlEntry& e) {
              if (store.is_alive(e.traj)) offer(e, base);
            });
          }

          auto& cover = covers[r];
          cover.reserve(touched.size());
          for (TrajId traj : touched) cover.push_back({traj, best[traj]});
        }
      },
      grain);
  out.approx = tops::CoverageIndex::FromCovers(std::move(covers), num_trajs,
                                               store.live_count(), tau_m);
  out.build_seconds = timer.Seconds();
  out.bytes =
      out.approx.MemoryBytes() + out.rep_sites.size() * sizeof(SiteId);
  return out;
}

double SharedCoverTau(const index::MultiIndex& index, size_t instance,
                      double tau_m) {
  if (std::isinf(tau_m) && tau_m > 0.0) return tau_m;  // no finite edge
  const double growth = 1.0 + index.gamma();
  double j = static_cast<double>(instance + 1);
  if (tau_m > index.tau_min_m()) {
    j = std::max(j, std::ceil(std::log(tau_m / index.tau_min_m()) /
                              std::log1p(index.gamma())));
  }
  double edge = index.tau_min_m() * std::pow(growth, j);
  // The log estimate can land one boundary low under rounding.
  while (edge < tau_m) edge = index.tau_min_m() * std::pow(growth, ++j);
  return edge;
}

}  // namespace netclus::exec
