// The CoverBuild stage: the approximate trajectory covers T̂C of Sec. 5,
// packaged as a shareable unit.
//
// Given (instance p, τ): for every cluster representative r_i,
//   T̂C(r_i) = { T_j ∈ TL(g_i) ∪ TL(neighbors) : d̂_r(T_j, r_i) ≤ τ },
//   d̂_r(T_j, r_i) = d_r(T_j, c_j) + d_r(c_j, c_i) + d_r(c_i, r_i)   (Eq. 9)
// (minimum estimate when T_j is reachable through several clusters),
// wrapped in a tops::CoverageIndex over the representatives so the
// unchanged solver family runs on it. d̂_r ≥ d_r, so T̂C ⊆ TC and the
// Theorem 7 bounds hold.
//
// Covers are τ-nested. d̂_r does not depend on τ, so for τ ≤ τ'
//   T̂C(r, τ) = { T ∈ T̂C(r, τ') : d̂_r(T) ≤ τ }
// with bit-equal d̂_r, and every TC / SC list is sorted by (d̂_r, id). A
// cover built at τ' therefore answers any τ ≤ τ' by a zero-copy prefix
// cut (BuiltCover::Cut), byte-equal to building at τ. That makes a
// cover's identity the instance alone (CoverKey): the serving layer
// builds one cover per (snapshot version, instance) at the top of the
// instance's τ-range (SharedCoverTau) and cuts every query from it, and
// the executor shares one build across a batch's plans on an instance.
// A cover depends on nothing else — not k, ψ, FM, or existing services.
// Construction is deterministic at every thread count (the per-chunk
// scratch never changes the covers), so a shared cover is bit-identical
// to a per-query rebuild.
#ifndef NETCLUS_EXEC_COVER_BUILD_H_
#define NETCLUS_EXEC_COVER_BUILD_H_

#include <cstdint>
#include <vector>

#include "netclus/multi_index.h"
#include "tops/coverage.h"
#include "tops/site_set.h"
#include "traj/trajectory_store.h"

namespace netclus::exec {

/// One built clustered-space cover: the CoverageIndex over representatives
/// plus the representative SiteId per clustered-space index, with its build
/// cost so sharers can report amortized attribution.
struct BuiltCover {
  tops::CoverageIndex approx;
  std::vector<tops::SiteId> rep_sites;
  double build_seconds = 0.0;
  /// approx.MemoryBytes() + the rep_sites footprint — the transient bytes
  /// a non-shared query would have charged.
  uint64_t bytes = 0;

  /// The τ the cover was built at: it answers every τ ≤ tau_m().
  double tau_m() const { return approx.tau_m(); }

  /// True when this cover can answer `tau` (tau ≤ tau_m()).
  bool Answers(double tau) const { return !(tau > tau_m()); }

  /// The cover at `tau` ≤ tau_m(): a zero-copy prefix view over `approx`
  /// (tops::CoverageIndex::Cut), valid while this cover lives.
  tops::CoverageIndex Cut(double tau) const { return approx.Cut(tau); }
};

/// Builds T̂C for `instance` at `tau_m` over the current corpus. `threads`
/// follows the library convention (0 = NETCLUS_THREADS default); the
/// result is identical at any thread count.
BuiltCover BuildCover(const index::MultiIndex& index,
                      const traj::TrajectoryStore& store, double tau_m,
                      size_t instance, uint32_t threads);

/// The τ a shared cover for `instance` is built at so that one build
/// answers `tau_m` and every other τ of the instance's range
/// [τ_min(1+γ)^p, τ_min(1+γ)^(p+1)): the smallest boundary
/// τ_min·(1+γ)^j ≥ tau_m with j ≥ p + 1. Past the last instance's nominal
/// edge this rounds up to the next boundary, so a cover that has to grow
/// grows geometrically. +inf is returned as is.
double SharedCoverTau(const index::MultiIndex& index, size_t instance,
                      double tau_m);

}  // namespace netclus::exec

#endif  // NETCLUS_EXEC_COVER_BUILD_H_
