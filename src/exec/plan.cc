#include "exec/plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/rng.h"

namespace netclus::exec {

namespace {

uint64_t Combine(uint64_t seed, uint64_t value) {
  return util::SplitMix64(
      seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

// -0.0 and 0.0 compare equal everywhere Score()/InstanceFor() look at
// them, so the canonical bit pattern folds them together.
uint64_t CanonicalDoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  return std::bit_cast<uint64_t>(d);
}

}  // namespace

const char* VariantName(QueryVariant variant) {
  switch (variant) {
    case QueryVariant::kTops:
      return "tops";
    case QueryVariant::kTopsCost:
      return "tops-cost";
    case QueryVariant::kTopsCapacity:
      return "tops-capacity";
  }
  return "unknown";
}

const char* SolverName(SolverKind solver) {
  switch (solver) {
    case SolverKind::kIncGreedy:
      return "inc-greedy";
    case SolverKind::kFmGreedy:
      return "fm-greedy";
    case SolverKind::kCostGreedy:
      return "cost-greedy";
    case SolverKind::kCapacityGreedy:
      return "capacity-greedy";
  }
  return "unknown";
}

size_t CoverKeyHash::operator()(const CoverKey& key) const {
  return static_cast<size_t>(util::SplitMix64(key.instance));
}

uint64_t PlanKey::Fingerprint() const {
  uint64_t h = util::SplitMix64(variant);
  h = Combine(h, k);
  h = Combine(h, tau_bits);
  h = Combine(h, use_fm ? 1 : 0);
  h = Combine(h, fm_copies);
  h = Combine(h, psi_kind);
  h = Combine(h, psi_param_bits);
  h = Combine(h, instance);
  h = Combine(h, existing.size());
  for (tops::SiteId s : existing) h = Combine(h, s);
  return h;
}

tops::PreferenceFunction NormalizePsi(const tops::PreferenceFunction& psi) {
  if (psi.kind() == tops::PreferenceFunction::Kind::kConvexProbability &&
      psi.param() == 1.0) {
    // (1 - d/τ)^1 computes std::pow(x, 1.0), which IEEE 754 (and glibc's
    // correctly-rounded pow) returns as exactly x — the Linear score.
    // test_exec.PsiNormalizationIsBitExact pins this platform assumption.
    return tops::PreferenceFunction::Linear();
  }
  return psi;
}

double CanonicalTau(double tau_m) {
  return std::isnan(tau_m) ? std::numeric_limits<double>::infinity() : tau_m;
}

PlanKey CanonicalPlanKey(const PlanRequest& request, size_t instance) {
  const tops::PreferenceFunction psi = NormalizePsi(request.psi);
  PlanKey key;
  key.variant = static_cast<uint8_t>(request.variant);
  key.k = request.k;
  key.tau_bits = CanonicalDoubleBits(CanonicalTau(request.tau_m));
  key.use_fm = request.use_fm;
  key.fm_copies = request.use_fm ? request.fm_copies : 0;
  key.psi_kind = static_cast<uint8_t>(psi.kind());
  key.psi_param_bits = CanonicalDoubleBits(psi.param());
  key.instance = instance;
  key.existing = request.existing_services;
  std::sort(key.existing.begin(), key.existing.end());
  key.existing.erase(std::unique(key.existing.begin(), key.existing.end()),
                     key.existing.end());
  return key;
}

}  // namespace netclus::exec
