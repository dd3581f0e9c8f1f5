#include "serve/standing.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace netclus::serve {

namespace {

/// Membership diff of two top-k site lists (selection order is part of
/// the result but not of the subscription contract — a pure reordering
/// with identical membership is not a change worth waking a subscriber
/// for; the full result rides along in the update anyway).
void DiffSites(const std::vector<tops::SiteId>& before,
               const std::vector<tops::SiteId>& after,
               std::vector<tops::SiteId>* added,
               std::vector<tops::SiteId>* removed) {
  std::vector<tops::SiteId> a = before;
  std::vector<tops::SiteId> b = after;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(*added));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(*removed));
}

}  // namespace

uint64_t StandingQueryRegistry::Register(Engine::QuerySpec spec,
                                         size_t instance,
                                         uint64_t max_version_lag,
                                         StandingCallback callback,
                                         uint64_t version,
                                         const Evaluator& evaluate) {
  const nc::RecursiveMutexLock lock(mu_);
  const uint64_t id = next_id_++;
  Entry& entry = entries_[id];
  entry.spec = std::move(spec);
  entry.instance = instance;
  entry.max_version_lag = max_version_lag;
  entry.callback = std::move(callback);
  ++registered_total_;
  // Initial delivery: the subscriber always gets a baseline result to
  // diff subsequent pushes against.
  EvaluateLocked(id, entry, version, /*first=*/true, evaluate);
  return id;
}

bool StandingQueryRegistry::Unregister(uint64_t id) {
  const nc::RecursiveMutexLock lock(mu_);
  return entries_.erase(id) != 0;
}

void StandingQueryRegistry::OnPublish(uint64_t new_version,
                                      const DeltaSummary& delta,
                                      const Evaluator& evaluate) {
  const nc::RecursiveMutexLock lock(mu_);
  // Snapshot the ids first: a callback may Unregister itself (or register
  // a new query, which must not be evaluated as part of this publish).
  std::vector<uint64_t> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());  // deterministic evaluation order
  for (const uint64_t id : ids) {
    auto it = entries_.find(id);
    if (it == entries_.end()) continue;  // unregistered by a callback
    Entry& entry = it->second;
    if (!delta.IsDirty(entry.instance) && entry.pending_dirty == 0) {
      // Clean instance, nothing pending: the answer at new_version is
      // bit-identical to the last evaluation — advance without work.
      entry.last_eval_version = new_version;
      ++skipped_clean_;
      continue;
    }
    if (delta.IsDirty(entry.instance)) ++entry.pending_dirty;
    if (entry.pending_dirty <= entry.max_version_lag) {
      // Within the staleness budget: coalesce into a later publish.
      ++deferred_;
      continue;
    }
    EvaluateLocked(id, entry, new_version, /*first=*/false, evaluate);
  }
}

void StandingQueryRegistry::EvaluateLocked(uint64_t id, Entry& entry,
                                           uint64_t version, bool first,
                                           const Evaluator& evaluate) {
  StandingUpdate update;
  update.query_id = id;
  update.version = version;
  update.first = first;
  update.result = evaluate(entry.spec, &update.snapshot);
  if (update.snapshot != nullptr) update.version = update.snapshot->version();
  ++evaluations_;
  // The first push is the baseline: no previous result to diff against,
  // so added/removed stay empty (see StandingUpdate).
  if (!first) {
    DiffSites(entry.last_sites, update.result.selection.sites, &update.added,
              &update.removed);
  }
  entry.last_eval_version = version;
  entry.pending_dirty = 0;
  if (!first && update.added.empty() && update.removed.empty()) {
    // Same membership — the re-evaluation confirmed the answer; nothing
    // to wake the subscriber for.
    return;
  }
  entry.last_sites = update.result.selection.sites;
  ++pushes_;
  // Invoke through a copy: the callback may Unregister(id), erasing
  // `entry` (and with it the stored std::function) mid-call.
  const StandingCallback callback = entry.callback;
  callback(update);
}

size_t StandingQueryRegistry::size() const {
  const nc::RecursiveMutexLock lock(mu_);
  return entries_.size();
}

StandingQueryRegistry::Stats StandingQueryRegistry::stats() const {
  const nc::RecursiveMutexLock lock(mu_);
  Stats s;
  s.registered_total = registered_total_;
  s.active = entries_.size();
  s.evaluations = evaluations_;
  s.pushes = pushes_;
  s.skipped_clean = skipped_clean_;
  s.deferred = deferred_;
  return s;
}

}  // namespace netclus::serve
