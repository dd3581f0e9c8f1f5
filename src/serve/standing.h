// Standing (continuous) top-k placement queries.
//
// A standing query is a registered TOPS spec the server re-evaluates on
// snapshot publishes and whose subscriber is notified with *diffed*
// top-k results — the ROADMAP "continuous standing queries" item, and the
// consumer the delta-aware carryover machinery was built for: most
// re-evaluations land on carried-forward cache entries and cost a lookup,
// not a solve.
//
// Re-evaluation is delta-gated per entry using the publish's DeltaSummary
// (see delta.h):
//  * the entry's resolution instance is CLEAN → the answer at the new
//    version is bit-identical to the last one; skip the evaluation
//    entirely and just advance the entry's version (skipped_clean).
//  * DIRTY, but the entry's staleness budget tolerates more lag →
//    defer; the entry stays pending and is coalesced into a later
//    publish (deferred). A budget of 0 re-evaluates on every dirty
//    publish.
//  * DIRTY past the budget → evaluate at the new version, diff the
//    top-k site list against the last push, and invoke the callback only
//    when something changed (pushes vs evaluations measures how often
//    updates actually move the answer).
//
// Evaluation runs on the update pipeline's writer thread (publishes are
// the only trigger), serialized with Register/Unregister by one recursive
// mutex — a callback may Unregister itself (or register new queries), but
// must not block and must never call back into the pipeline (Flush on the
// writer thread would self-deadlock).
#ifndef NETCLUS_SERVE_STANDING_H_
#define NETCLUS_SERVE_STANDING_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "api/engine.h"
#include "netclus/query.h"
#include "serve/delta.h"
#include "serve/snapshot.h"
#include "tops/site_set.h"
#include "util/thread_annotations.h"

namespace netclus::serve {

/// One push to a standing-query subscriber.
struct StandingUpdate {
  uint64_t query_id = 0;
  /// Snapshot version the result was evaluated at.
  uint64_t version = 0;
  /// The snapshot the result was evaluated on, so a subscriber (or a
  /// test) can replay the query at exactly that version.
  SnapshotPtr snapshot;
  /// True for the initial result delivered at registration.
  bool first = false;
  index::QueryResult result;
  /// Top-k membership diff against the previously pushed result (both
  /// empty on the first push).
  std::vector<tops::SiteId> added;
  std::vector<tops::SiteId> removed;
};

using StandingCallback = std::function<void(const StandingUpdate&)>;

class StandingQueryRegistry {
 public:
  /// Evaluates a canonical spec at the current snapshot and reports that
  /// snapshot through `evaluated_on`; supplied per call by the server (it
  /// owns the caches and execution context).
  using Evaluator = std::function<index::QueryResult(
      const Engine::QuerySpec& spec, SnapshotPtr* evaluated_on)>;

  struct Stats {
    uint64_t registered_total = 0;  ///< Register calls that stuck
    uint64_t active = 0;            ///< currently registered
    uint64_t evaluations = 0;       ///< spec evaluations run (incl. first)
    uint64_t pushes = 0;            ///< callbacks invoked (diff non-empty
                                    ///< or first)
    uint64_t skipped_clean = 0;     ///< publishes skipped: instance clean
    uint64_t deferred = 0;          ///< dirty publishes within the budget
  };

  StandingQueryRegistry() = default;
  StandingQueryRegistry(const StandingQueryRegistry&) = delete;
  StandingQueryRegistry& operator=(const StandingQueryRegistry&) = delete;

  /// Registers `spec` (already canonicalized, resolved to `instance`)
  /// and delivers the initial result: evaluates via `evaluate` at
  /// `version` and pushes it with first = true before returning. Returns
  /// the id for Unregister. `max_version_lag` is the entry's staleness
  /// budget in dirty-but-unevaluated publishes (0 = re-evaluate on every
  /// dirty publish).
  uint64_t Register(Engine::QuerySpec spec, size_t instance,
                    uint64_t max_version_lag, StandingCallback callback,
                    uint64_t version, const Evaluator& evaluate)
      EXCLUDES(mu_);

  /// Removes a standing query. Blocks while a publish evaluation is in
  /// progress (so after it returns, the callback will not fire again);
  /// reentrant from the entry's own callback. Returns false for an
  /// unknown id.
  bool Unregister(uint64_t id) EXCLUDES(mu_);

  /// Publish hook: applies the delta-gating above to every entry at
  /// `new_version`. Runs evaluations (and callbacks) inline.
  void OnPublish(uint64_t new_version, const DeltaSummary& delta,
                 const Evaluator& evaluate) EXCLUDES(mu_);

  size_t size() const EXCLUDES(mu_);
  Stats stats() const EXCLUDES(mu_);

 private:
  struct Entry {
    Engine::QuerySpec spec;  ///< canonical form; owns its vectors
    size_t instance = 0;
    uint64_t max_version_lag = 0;
    StandingCallback callback;
    uint64_t last_eval_version = 0;
    /// Dirty publishes seen since last_eval_version (the deferral lag).
    uint64_t pending_dirty = 0;
    std::vector<tops::SiteId> last_sites;  ///< last pushed top-k
  };

  /// Evaluates one entry at `version` and pushes when changed (or
  /// `first`). Caller holds mu_. (Reentrant acquisitions from callbacks
  /// are invisible to the static analysis, which only tracks the
  /// outermost hold — safe because the mutex is recursive.)
  void EvaluateLocked(uint64_t id, Entry& entry, uint64_t version, bool first,
                      const Evaluator& evaluate) REQUIRES(mu_);

  /// Recursive: callbacks run under the lock and may Unregister/Register.
  mutable nc::RecursiveMutex mu_;
  std::unordered_map<uint64_t, Entry> entries_ GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  uint64_t registered_total_ GUARDED_BY(mu_) = 0;
  uint64_t evaluations_ GUARDED_BY(mu_) = 0;
  uint64_t pushes_ GUARDED_BY(mu_) = 0;
  uint64_t skipped_clean_ GUARDED_BY(mu_) = 0;
  uint64_t deferred_ GUARDED_BY(mu_) = 0;
};

}  // namespace netclus::serve

#endif  // NETCLUS_SERVE_STANDING_H_
