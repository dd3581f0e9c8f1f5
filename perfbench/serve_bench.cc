// The serving benchmark program: generates one workload from a seed,
// serves it through NetClusServer::SubmitAsync, checks every answer it is
// asked to check, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as "name = value unit" lines followed by one JSON
// object on the last line. perfbench/README.md describes the workloads and
// metrics; perfbench/run.py builds this binary and forwards its arguments.
//
//   serve_bench --workload distinct_tau|zipf_hot|update_mix --seed N
//               --seconds S --trace 0|1 [--work-dir DIR] [--commit SHA]
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "bench_helpers.h"
#include "data/datasets.h"
#include "exec/cover_build.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "graph/spf/distance_backend.h"
#include "netclus/index_io.h"
#include "serve/server.h"
#include "store/buffer_pool.h"
#include "store/simd/bulk_varint.h"
#include "tops/coverage.h"
#include "tops/inc_greedy.h"
#include "traj/trip_generator.h"

namespace perfbench {
namespace {

using netclus::Engine;
using netclus::serve::NetClusServer;
using netclus::serve::Response;
using netclus::serve::SnapshotPtr;
using netclus::serve::StatusCode;
using Clock = std::chrono::steady_clock;

// --- pinned configuration ----------------------------------------------------

constexpr double kDatasetScale = 0.3;
// One corpus for every run (the library's default Beijing-lite seed): the
// --seed argument varies the traffic, not the city, so run-to-run spread
// measures the server rather than how expensive one random city is.
constexpr uint64_t kDatasetSeed = 23;
constexpr double kTauMinM = 400.0;
constexpr double kTauMaxM = 6000.0;
constexpr double kGamma = 0.75;
constexpr uint32_t kSchedulerWorkers = 4;
constexpr uint32_t kQueryThreads = 1;
constexpr uint32_t kBuildThreads = 4;
constexpr size_t kInFlight = 4;       // closed-loop reads kept in flight
constexpr int kSetupRepeats = 5;      // setup_s is the median of these
constexpr double kWriteIntervalS = 0.2;
constexpr size_t kAddsPerBatch = 16;  // plus one remove per batch
constexpr size_t kProbeBatches = 32;  // publishes timed on read-only servers
constexpr size_t kZipfPool = 64;
constexpr double kZipfS = 1.1;
constexpr uint64_t kVerifySampleEvery = 64;  // zipf_hot verification sample
constexpr unsigned kVerifyThreads = 4;
constexpr size_t kReplayCoverLru = 32;

enum class Workload { kDistinctTau, kZipfHot, kUpdateMix };

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "distinct_tau") *out = Workload::kDistinctTau;
  else if (name == "zipf_hot") *out = Workload::kZipfHot;
  else if (name == "update_mix") *out = Workload::kUpdateMix;
  else return false;
  return true;
}

// Every NETCLUS_* variable the library reads, pinned before any library
// call so an operator's environment cannot change what is measured. The
// page budget is raised only around the distinct_tau index load.
void PinEnvironment() {
  static const char* const kPinned[][2] = {
      {"NETCLUS_THREADS", "1"},        {"NETCLUS_SCHED_WORKERS", "4"},
      {"NETCLUS_COVER_CACHE", "1"},    {"NETCLUS_CARRYOVER", "1"},
      {"NETCLUS_SIMD", "auto"},        {"NETCLUS_PAGE_BUDGET", "0"},
      {"NETCLUS_INDEX_MMAP", "1"},     {"NETCLUS_SPF", "dijkstra"},
      {"NETCLUS_TRACE_SAMPLE", "0"},   {"NETCLUS_TRACE_SEED", "0"},
      {"NETCLUS_TRACE_RING", "8192"},  {"NETCLUS_SLOW_QUERY_MS", "0"},
      {"NETCLUS_LOG", "warning"},
  };
  for (const auto& kv : kPinned) setenv(kv[0], kv[1], 1);
}

netclus::serve::ServerOptions MakeServerOptions(bool traced) {
  netclus::serve::ServerOptions options;
  options.query_threads = kQueryThreads;
  options.scheduler_workers = kSchedulerWorkers;
  options.cover_cache.respect_env = false;
  options.carryover = 1;
  options.trace_sample = traced ? 1.0 : 0.0;
  options.trace_seed = 0;
  options.slow_query_ms = 0.0;
  return options;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Resident set of this process now, from /proc/self/statm, in MiB.
double CurrentRssMb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  in >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Samples the resident set every 20 ms from construction to Stop() and
// keeps the largest sample: the memory the process held while serving,
// not the transient peak of set-up.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling (idempotent); returns the peak in MiB.
  double Stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return peak_mb_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      peak_mb_ = std::max(peak_mb_, CurrentRssMb());
      if (stop_) return;
      cv_.wait_for(lock, std::chrono::milliseconds(20), [&] { return stop_; });
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double peak_mb_ = 0.0;
  std::thread thread_;  // last: starts after the fields it uses exist
};

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

// --- request streams -----------------------------------------------------------

struct ReadSpec {
  uint32_t k = 5;
  double tau_m = 800.0;
};

struct StreamItem {
  uint32_t spec = 0;
  bool fresh = true;  // false: kInteractive with AllowStaleVersion(4)
};

struct Streams {
  std::vector<ReadSpec> specs;
  std::vector<StreamItem> items;  // cycled when a run outlasts it
};

// Bit-reversal order of 0..n-1 (n a power of two): consecutive entries
// land far apart, so the hottest Zipf ranks span the whole τ range.
std::vector<size_t> SpreadOrder(size_t n) {
  size_t bits = 0;
  while ((size_t{1} << bits) < n) ++bits;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    size_t r = 0;
    for (size_t b = 0; b < bits; ++b) r |= ((i >> b) & 1) << (bits - 1 - b);
    order[i] = r;
  }
  return order;
}

Streams MakeStreams(Workload workload, uint64_t seed, size_t length) {
  SplitMix64 rng(seed * 0x2545f4914f6cdd1dULL + 11);
  Streams s;
  s.items.resize(length);
  if (workload == Workload::kDistinctTau) {
    // k uniform in [3, 10], τ uniform over the 500 values of the 10 m
    // grid on [500, 5490] m: every (k, τ) pair is its own spec.
    for (uint32_t k = 3; k <= 10; ++k) {
      for (int t = 0; t < 500; ++t) s.specs.push_back({k, 500.0 + 10.0 * t});
    }
    for (StreamItem& item : s.items) {
      const uint64_t k = rng.Below(8);
      const uint64_t t = rng.Below(500);
      item.spec = static_cast<uint32_t>(k * 500 + t);
    }
    return s;
  }
  // Zipf pools of 64 specs: 8 τ x 8 k (zipf_hot) or 32 τ x 2 k
  // (update_mix). The grid is cut into one stratum per τ and the seed
  // picks a τ inside each stratum and the k values; Zipf rank r goes to
  // stratum SpreadOrder[r mod strata], so every seed's hot set mixes
  // short and long radii alike and the pool's cost does not hinge on
  // which radius one seed happened to rank first.
  const size_t strata = workload == Workload::kZipfHot ? 8 : 32;
  const size_t ks_per_tau = kZipfPool / strata;
  std::vector<double> taus(strata);
  std::vector<std::vector<uint32_t>> ks(strata);
  for (size_t j = 0; j < strata; ++j) {
    const uint64_t lo = 500 * j / strata;
    const uint64_t hi = 500 * (j + 1) / strata;
    taus[j] = 500.0 + 10.0 * static_cast<double>(lo + rng.Below(hi - lo));
    ks[j] = {3, 4, 5, 6, 7, 8, 9, 10};
    for (size_t i = 0; i < ks_per_tau; ++i) {
      std::swap(ks[j][i], ks[j][i + rng.Below(ks[j].size() - i)]);
    }
  }
  const std::vector<size_t> spread = SpreadOrder(strata);
  for (size_t r = 0; r < kZipfPool; ++r) {
    const size_t j = spread[r % strata];
    s.specs.push_back({ks[j][r / strata], taus[j]});
  }
  const ZipfSampler zipf(s.specs.size(), kZipfS);
  for (size_t i = 0; i < length; ++i) {
    s.items[i].spec = static_cast<uint32_t>(zipf.Sample(rng.Uniform()));
    s.items[i].fresh = workload != Workload::kUpdateMix || i % 8 == 7;
  }
  return s;
}

netclus::serve::Request MakeRequest(const ReadSpec& spec, bool fresh) {
  netclus::serve::Request request;
  request.spec.k = spec.k;
  request.spec.tau_m = spec.tau_m;
  if (!fresh) {
    request.priority = netclus::serve::Priority::kInteractive;
    request.staleness = netclus::serve::StalenessPolicy::AllowStaleVersion(4);
  }
  return request;
}

// Pre-generated writes: batch b adds trajectories [16 b, 16 b + 16) of
// `adds` and removes corpus trajectory `removes[b]`.
struct WritePool {
  std::vector<std::vector<netclus::graph::NodeId>> adds;
  std::vector<netclus::traj::TrajId> removes;
  size_t batches() const { return removes.size(); }
};

// New trips come from the corpus's own generator (same hotspots, same
// seed), continued past the corpus, so the corpus stays the same kind of
// city while it grows; --seed only orders the trips into batches and
// picks which corpus trajectories are removed.
WritePool MakeWritePool(const netclus::data::Dataset& d, uint64_t seed,
                        size_t batches) {
  const size_t corpus = d.store->total_count();
  netclus::traj::TrajectoryStore scratch(d.network.get());
  netclus::traj::TripGeneratorConfig trips;
  trips.num_trajectories =
      static_cast<uint32_t>(corpus + batches * kAddsPerBatch);
  trips.num_hotspots = 12;
  trips.hotspot_sigma_m = 900.0;
  trips.min_od_distance_m = 2000.0;
  trips.seed = kDatasetSeed + 1;
  netclus::traj::GenerateTrips(trips, &scratch);
  WritePool pool;
  for (size_t t = corpus; t < scratch.total_count(); ++t) {
    pool.adds.push_back(scratch.trajectory(static_cast<uint32_t>(t)).nodes());
  }
  SplitMix64 rng(seed ^ 0x5bd1e995ULL);
  for (size_t i = pool.adds.size(); i > 1; --i) {
    std::swap(pool.adds[i - 1], pool.adds[rng.Below(i)]);
  }
  std::vector<netclus::traj::TrajId> ids(corpus);
  std::iota(ids.begin(), ids.end(), 0);
  const size_t full_batches = pool.adds.size() / kAddsPerBatch;
  for (size_t i = 0; i < std::min(full_batches, ids.size()); ++i) {
    std::swap(ids[i], ids[i + rng.Below(ids.size() - i)]);
    pool.removes.push_back(ids[i]);
  }
  return pool;
}

// --- set-up --------------------------------------------------------------------

struct Setup {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<NetClusServer> server;
  double total_s = 0.0;
  double build_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  uint64_t file_bytes = 0;
};

// Engine construction, ingest, BuildIndex, (distinct_tau: save v3, reload
// mmap'ed under a page budget of 1/8 of the file) and Serve().
Setup RunSetup(const netclus::data::Dataset& d, Workload workload,
               const std::string& index_path) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  Engine::Options options;
  options.index.gamma = kGamma;
  options.index.tau_min_m = kTauMinM;
  options.index.tau_max_m = kTauMaxM;
  options.threads = kBuildThreads;
  options.distance_backend = netclus::graph::spf::BackendKind::kDijkstra;
  options.index_load_mode = netclus::index::IndexLoadMode::kMmap;
  s.engine = std::make_unique<Engine>(*d.network, d.sites, options);
  for (size_t t = 0; t < d.store->total_count(); ++t) {
    s.engine->AddTrajectory(
        d.store->trajectory(static_cast<netclus::traj::TrajId>(t)).nodes());
  }
  Clock::time_point t1 = Clock::now();
  s.engine->BuildIndex();
  s.build_s = Since(t1);
  if (workload == Workload::kDistinctTau) {
    std::string error;
    t1 = Clock::now();
    if (!s.engine->SaveIndexToFile(index_path, &error)) {
      std::fprintf(stderr, "save failed: %s\n", error.c_str());
      std::exit(2);
    }
    s.save_s = Since(t1);
    s.file_bytes = FileBytes(index_path);
    const std::string budget = std::to_string(s.file_bytes / 8);
    setenv("NETCLUS_PAGE_BUDGET", budget.c_str(), 1);
    t1 = Clock::now();
    const bool loaded = s.engine->LoadIndexFromFile(index_path, &error);
    s.load_s = Since(t1);
    setenv("NETCLUS_PAGE_BUDGET", "0", 1);
    if (!loaded) {
      std::fprintf(stderr, "load failed: %s\n", error.c_str());
      std::exit(2);
    }
  }
  s.server = s.engine->Serve(MakeServerOptions(/*traced=*/false));
  s.total_s = Since(t0);
  return s;
}

netclus::store::BufferPool* PoolOf(const netclus::index::MultiIndex& index) {
  if (index.num_instances() == 0) return nullptr;
  return netclus::store::BufferPool::Find(
      static_cast<const uint8_t*>(index.instance(0).cc_arena_id()));
}

// --- the measured window -----------------------------------------------------------

struct Record {
  uint32_t spec = 0;
  StatusCode status = StatusCode::kOk;
  bool cache_hit = false;
  bool stale = false;
  bool shed = false;
  bool cover_shared = false;
  uint64_t version = 0;
  double submit_s = 0.0;  // from window start
  double done_s = 0.0;
  double queue_s = 0.0;
  /// Writer operations applied in the serving snapshot (-1: the snapshot
  /// aged out of the server's history before the answer was delivered).
  int64_t ops = -1;
  double latency_s() const { return done_s - submit_s; }
};

/// A response retained for verification and replay. Only the answer is
/// kept, not the snapshot: the state it was served at is identified by
/// Record::ops and rebuilt on demand (StateWalker), so published versions
/// do not pile up in memory and inflate peak_rss_mb.
struct Kept {
  size_t record = 0;
  netclus::index::QueryResult result;
};

struct WriteRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
  double visible_s = 0.0;
  size_t batch = 0;
};

// What one measured window produced. Counters and latencies cover every
// read; `records` only the reads the window was asked to keep (all of
// them on distinct_tau and update_mix, a sample on zipf_hot), so client
// bookkeeping stays small and does not grow with throughput.
struct Window {
  uint64_t reads = 0;
  uint64_t ok = 0;
  uint64_t stale = 0;  // kOk answers flagged stale
  uint64_t shed = 0;
  std::vector<double> latencies_s;  // kOk reads, client-side
  double peak_rss_mb = 0.0;         // sampled while the window ran
  std::vector<Record> records;
  std::vector<Kept> kept;
  std::vector<WriteRecord> writes;
  size_t writes_attempted = 0;
  size_t writes_rejected = 0;
  double wall_s = 0.0;
  double generator_cpu_s = 0.0;
  netclus::serve::ServerStats stats;
};

// Latency slots allocated and touched before a window starts, so the
// client's own memory does not depend on how many reads the server
// answers (peak_rss_mb must not move with qps).
constexpr size_t kLatencySlots = 1 << 22;

// Client state shared with the completion callbacks (heap-held so a late
// callback never touches a dead stack frame).
struct ClientState {
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;
  uint64_t reads = 0, ok = 0, stale = 0, shed = 0;
  std::vector<float> latencies_s = std::vector<float>(kLatencySlots, 0.0f);
  size_t latency_count = 0;
  std::vector<Record> records;
  std::vector<Kept> kept;
};

// Sends one write batch (16 adds + 1 remove) and waits for its publish.
void SendBatch(NetClusServer* server, const WritePool& pool, size_t batch,
               size_t* attempted, size_t* rejected) {
  for (size_t i = 0; i < kAddsPerBatch; ++i) {
    const auto ticket =
        server->MutateAddTrajectory(pool.adds[batch * kAddsPerBatch + i]);
    ++*attempted;
    *rejected += !ticket.accepted;
  }
  const auto ticket = server->MutateRemoveTrajectory(pool.removes[batch]);
  ++*attempted;
  *rejected += !ticket.accepted;
  server->Flush();
}

// `keep(i, spec)` decides which responses are retained for verification
// and replay.
template <typename KeepFn>
Window RunWindow(NetClusServer* server, const netclus::serve::IndexSnapshot& v1,
                 const Streams& streams, double seconds,
                 const WritePool* writes, KeepFn keep) {
  Window w;
  // Every writer op adds one trajectory or removes one live one, so a
  // snapshot's store counts tell how many ops it has applied.
  const int64_t total0 = static_cast<int64_t>(v1.store().total_count());
  const int64_t live0 = static_cast<int64_t>(v1.store().live_count());
  auto state = std::make_shared<ClientState>();
  state->records.reserve(1 << 16);
  state->kept.reserve(1 << 16);
  RssSampler rss;
  const Clock::time_point t0 = Clock::now();

  // The open-loop writer: batch b is due at t0 + b * interval. A jthread
  // joins on every exit path; `w` and `state` outlive it.
  std::jthread writer;
  if (writes != nullptr) {
    writer = std::jthread([&] {
      for (size_t b = 0; b < writes->batches(); ++b) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      kWriteIntervalS * static_cast<double>(b)));
        if (std::chrono::duration<double>(due - t0).count() >= seconds) break;
        std::this_thread::sleep_until(due);
        WriteRecord rec;
        rec.batch = b;
        rec.due_s = std::chrono::duration<double>(due - t0).count();
        rec.sent_s = Since(t0);
        SendBatch(server, *writes, b, &w.writes_attempted, &w.writes_rejected);
        rec.visible_s = Since(t0);
        w.writes.push_back(rec);
      }
    });
  }

  // The closed-loop read generator (this thread).
  const double cpu0 = ThreadCpuSeconds();
  for (uint64_t i = 0;; ++i) {
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->cv.wait(lock, [&] { return state->in_flight < kInFlight; });
      ++state->in_flight;
    }
    const double submit_s = Since(t0);
    if (submit_s >= seconds) {
      const std::lock_guard<std::mutex> lock(state->mu);
      --state->in_flight;
      break;
    }
    const StreamItem item = streams.items[i % streams.items.size()];
    const bool kept = keep(i, item.spec);
    server->SubmitAsync(
        MakeRequest(streams.specs[item.spec], item.fresh),
        [state, t0, submit_s, item, kept, total0, live0](Response r) {
          Record rec;
          rec.spec = item.spec;
          rec.status = r.status;
          rec.cache_hit = r.cache_hit;
          rec.stale = r.stale;
          rec.shed = r.shed;
          rec.cover_shared = r.result.cover_shared;
          rec.version = r.snapshot_version;
          rec.submit_s = submit_s;
          rec.queue_s = r.queue_seconds;
          rec.done_s = Since(t0);
          if (r.snapshot != nullptr) {
            const auto& store = r.snapshot->store();
            const int64_t adds =
                static_cast<int64_t>(store.total_count()) - total0;
            rec.ops = adds + (live0 + adds -
                              static_cast<int64_t>(store.live_count()));
          }
          const bool ok = r.status == StatusCode::kOk;
          const std::lock_guard<std::mutex> lock(state->mu);
          ++state->reads;
          state->ok += ok;
          state->stale += ok && r.stale;
          state->shed += r.shed;
          if (ok && state->latency_count < state->latencies_s.size()) {
            state->latencies_s[state->latency_count++] =
                static_cast<float>(rec.latency_s());
          }
          if (kept) {
            state->records.push_back(rec);
            if (ok) {
              state->kept.push_back(
                  {state->records.size() - 1, std::move(r.result)});
            }
          }
          --state->in_flight;
          state->cv.notify_one();
        });
  }
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->in_flight == 0; });
  }
  w.generator_cpu_s = ThreadCpuSeconds() - cpu0;
  w.wall_s = Since(t0);
  if (writer.joinable()) writer.join();
  w.peak_rss_mb = rss.Stop();
  w.stats = server->stats();
  const std::lock_guard<std::mutex> lock(state->mu);
  w.reads = state->reads;
  w.ok = state->ok;
  w.stale = state->stale;
  w.shed = state->shed;
  const auto count = static_cast<std::ptrdiff_t>(state->latency_count);
  w.latencies_s.assign(state->latencies_s.begin(),
                       state->latencies_s.begin() + count);
  w.records = std::move(state->records);
  w.kept = std::move(state->kept);
  return w;
}

// Answers every zipf spec once so the timed window starts warm.
void WarmUp(NetClusServer* server, const Streams& streams) {
  for (const ReadSpec& spec : streams.specs) {
    (void)server->Submit(MakeRequest(spec, true).spec);
  }
}

// Closed-loop publishes on an otherwise idle server (read-only workloads):
// the visible latency of one write batch.
std::vector<WriteRecord> ProbePublishes(NetClusServer* server,
                                        const WritePool& pool, size_t* attempted,
                                        size_t* rejected) {
  std::vector<WriteRecord> out;
  const Clock::time_point t0 = Clock::now();
  for (size_t b = 0; b < std::min(kProbeBatches, pool.batches()); ++b) {
    WriteRecord rec;
    rec.batch = b;
    rec.due_s = rec.sent_s = Since(t0);
    SendBatch(server, pool, b, attempted, rejected);
    rec.visible_s = Since(t0);
    out.push_back(rec);
  }
  return out;
}

// --- correctness gate ---------------------------------------------------------------

bool SameAnswer(const netclus::index::QueryResult& a,
                const netclus::index::QueryResult& b) {
  const auto& x = a.selection;
  const auto& y = b.selection;
  if (x.sites != y.sites || a.instance_used != b.instance_used) return false;
  if (std::bit_cast<uint64_t>(x.utility) != std::bit_cast<uint64_t>(y.utility))
    return false;
  if (x.marginal_gains.size() != y.marginal_gains.size()) return false;
  for (size_t i = 0; i < x.marginal_gains.size(); ++i) {
    if (std::bit_cast<uint64_t>(x.marginal_gains[i]) !=
        std::bit_cast<uint64_t>(y.marginal_gains[i]))
      return false;
  }
  return true;
}

netclus::index::QueryConfig ReplayConfig(const ReadSpec& spec) {
  Engine::QuerySpec q;
  q.k = spec.k;
  q.tau_m = spec.tau_m;
  return q.ToConfig(/*threads=*/1);
}

// The queryable state after the first `ops` writer operations, rebuilt
// from version 1 by applying the pre-generated writes in the order the
// writer sent them (the update pipeline applies ops in FIFO order, one
// copy-on-write batch at a time, so the state after n ops does not depend
// on how the ops were batched into versions). At 0 ops it is the version-1
// snapshot itself, so read-only workloads replay on the very snapshot
// that served them.
class StateWalker {
 public:
  StateWalker(SnapshotPtr v1, const WritePool& pool)
      : v1_(std::move(v1)), pool_(pool) {}

  /// Moves forward to `ops` (never backward).
  void AdvanceTo(int64_t ops) {
    if (ops == ops_) return;
    if (ops < ops_) {
      std::fprintf(stderr, "StateWalker cannot move backward\n");
      std::exit(2);
    }
    if (store_ == nullptr) {
      store_ = std::make_unique<netclus::traj::TrajectoryStore>(
          v1_->store(), &v1_->network());
      index_ = std::make_unique<netclus::index::MultiIndex>(v1_->index().Clone());
    }
    for (; ops_ < ops; ++ops_) {
      const size_t batch = static_cast<size_t>(ops_) / (kAddsPerBatch + 1);
      const size_t slot = static_cast<size_t>(ops_) % (kAddsPerBatch + 1);
      if (slot < kAddsPerBatch) {
        const netclus::traj::TrajId id =
            store_->Add(pool_.adds[batch * kAddsPerBatch + slot]);
        index_->AddTrajectory(*store_, id);
      } else {
        store_->Remove(pool_.removes[batch]);
        index_->RemoveTrajectory(pool_.removes[batch]);
      }
    }
    query_ = std::make_unique<netclus::index::QueryEngine>(
        index_.get(), store_.get(), &v1_->sites());
  }

  const netclus::index::MultiIndex& index() const {
    return index_ != nullptr ? *index_ : v1_->index();
  }
  const netclus::traj::TrajectoryStore& store() const {
    return store_ != nullptr ? *store_ : v1_->store();
  }
  const netclus::tops::SiteSet& sites() const { return v1_->sites(); }
  const netclus::index::QueryEngine& query() const {
    return query_ != nullptr ? *query_ : v1_->query();
  }

 private:
  SnapshotPtr v1_;
  const WritePool& pool_;
  int64_t ops_ = 0;
  std::unique_ptr<netclus::traj::TrajectoryStore> store_;
  std::unique_ptr<netclus::index::MultiIndex> index_;
  std::unique_ptr<netclus::index::QueryEngine> query_;
};

// The state a record was served at: its own op count, else that of
// another response served at the same version, else -1 (aged out).
std::vector<int64_t> ResolveOps(const std::vector<Record>& records) {
  std::unordered_map<uint64_t, int64_t> by_version;
  for (const Record& r : records) {
    if (r.ops >= 0) by_version[r.version] = r.ops;
  }
  std::vector<int64_t> out(records.size(), -1);
  for (size_t i = 0; i < records.size(); ++i) {
    const auto it = by_version.find(records[i].version);
    out[i] = records[i].ops >= 0 ? records[i].ops
             : it != by_version.end() ? it->second
                                      : -1;
  }
  return out;
}

struct Verdict {
  size_t checked = 0;
  size_t mismatched = 0;
  size_t aged_out = 0;  // stale answers whose version left the history
  size_t replays = 0;   // distinct (state, spec) serial replays
};

// Replays each kept response serially at the state that served it
// (memoized per (state, spec): the replay is deterministic) and compares
// sites, utility and gains bit for bit.
Verdict Verify(const Window& w, const Streams& streams, const SnapshotPtr& v1,
               const WritePool& pool) {
  Verdict v;
  const std::vector<int64_t> ops = ResolveOps(w.records);
  struct Job {
    int64_t ops = 0;
    uint32_t spec = 0;
    netclus::index::QueryResult expected;
  };
  std::map<std::pair<int64_t, uint32_t>, size_t> job_of;
  std::vector<Job> jobs;
  std::vector<size_t> job_index(w.kept.size(), SIZE_MAX);
  for (size_t i = 0; i < w.kept.size(); ++i) {
    const Record& rec = w.records[w.kept[i].record];
    const int64_t at = ops[w.kept[i].record];
    if (at < 0) {
      // A stale answer whose version aged out before anyone saw it: it
      // cannot be replayed, so it is counted, not skipped silently. A
      // fresh answer always carries its snapshot.
      ++(rec.stale ? v.aged_out : v.mismatched);
      continue;
    }
    auto [it, inserted] = job_of.emplace(std::make_pair(at, rec.spec), 0);
    if (inserted) {
      it->second = jobs.size();
      jobs.push_back({at, rec.spec, {}});
    }
    job_index[i] = it->second;
  }
  // Jobs in state order, each state's jobs answered concurrently.
  std::vector<size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return jobs[a].ops < jobs[b].ops; });
  StateWalker walker(v1, pool);
  for (size_t lo = 0; lo < order.size();) {
    size_t hi = lo;
    while (hi < order.size() && jobs[order[hi]].ops == jobs[order[lo]].ops) ++hi;
    walker.AdvanceTo(jobs[order[lo]].ops);
    std::atomic<size_t> next{lo};
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kVerifyThreads; ++t) {
      threads.emplace_back([&] {
        for (size_t j = next++; j < hi; j = next++) {
          Job& job = jobs[order[j]];
          job.expected = walker.query().Tops(
              netclus::tops::PreferenceFunction::Binary(),
              ReplayConfig(streams.specs[job.spec]));
        }
      });
    }
    threads.clear();  // joins
    lo = hi;
  }
  v.replays = jobs.size();
  for (size_t i = 0; i < w.kept.size(); ++i) {
    if (job_index[i] == SIZE_MAX) continue;
    ++v.checked;
    if (!SameAnswer(w.kept[i].result, jobs[job_index[i]].expected)) {
      ++v.mismatched;
    }
  }
  return v;
}

// Σ exact utility of NetClus answers over Σ Inc-Greedy utility on full
// covering sets, for a fixed 4-spec probe on `snap`. Deterministic.
double QualityVsGreedy(const netclus::serve::IndexSnapshot& snap) {
  static const ReadSpec kProbe[] = {{5, 800.0}, {10, 1500.0}, {3, 2500.0},
                                    {8, 1200.0}};
  const auto psi = netclus::tops::PreferenceFunction::Binary();
  double netclus_sum = 0.0;
  double greedy_sum = 0.0;
  for (const ReadSpec& spec : kProbe) {
    netclus::index::QueryConfig config = ReplayConfig(spec);
    config.threads = kBuildThreads;
    const auto answer = snap.query().Tops(psi, config);
    netclus_sum += netclus::tops::CoverageIndex::EvaluateSelection(
        snap.store(), snap.sites(), answer.selection.sites, spec.tau_m, psi);
    netclus::tops::CoverageConfig coverage_config;
    coverage_config.tau_m = spec.tau_m;
    coverage_config.threads = kBuildThreads;
    const auto coverage = netclus::tops::CoverageIndex::Build(
        snap.store(), snap.sites(), coverage_config);
    netclus::tops::GreedyConfig greedy;
    greedy.k = spec.k;
    greedy.threads = kBuildThreads;
    greedy_sum += netclus::tops::IncGreedy(coverage, psi, greedy).utility;
  }
  return greedy_sum > 0.0 ? netclus_sum / greedy_sum : 0.0;
}

// --- output --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s = %s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintPercentile(const char* name, const std::vector<double>& samples_s,
                     double q) {
  const Percentile p = SelectPercentile(samples_s, q);
  if (p.supported) {
    std::printf("info %s = %.4f ms (n=%zu, %zu beyond)\n", name,
                1e3 * p.value, samples_s.size(), p.beyond);
  } else {
    std::printf("info %s = n/a (n=%zu, only %zu beyond; need %zu)\n", name,
                samples_s.size(), p.beyond, Percentile::kMinBeyond);
  }
}


// --- traced replay ---------------------------------------------------------------------

// Serial re-execution of a traced window, layer by layer, at each
// response's snapshot: Plan for every request, BuildCover only where the
// server built (!cover_shared), ExecuteOnCover only where the answer was
// not a cache hit, and Clone + Add/RemoveTrajectory per publish. Child
// spans are laid end to end from their request's start, so a request's
// self time (serve) is its client latency not covered by layer work.
struct Replay {
  std::vector<Span> spans;
  std::vector<double> plan_s, build_s, solve_s, clone_s;
  double cover_bytes = 0.0;
  uint64_t pool_faults = 0, pool_evictions = 0, pool_touches = 0;
  size_t requests = 0;
  size_t unbuilt_covers = 0;  // shared covers built outside the replay
  size_t mismatched = 0;
  double apply_s = 0.0;
  size_t apply_ops = 0;
  uint64_t next_id = 1;

  uint64_t AddSpan(uint64_t parent, const char* layer, const char* name,
                   double start, double end) {
    spans.push_back({next_id, parent, layer, name, start, end});
    return next_id++;
  }

  double LayerShare(const std::string& name) const {
    double roots = 0.0, total = 0.0;
    for (const Span& s : spans) {
      if (s.parent == 0) roots += s.end - s.start;
      if (s.name == name) total += s.end - s.start;
    }
    return roots > 0.0 ? total / roots : 0.0;
  }
};

class CoverLru {
 public:
  using Key = std::tuple<int64_t, uint64_t, uint64_t>;  // ops, p, τ bits

  netclus::exec::CoverPtr Get(const Key& key) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        entries_.splice(entries_.begin(), entries_, it);
        return it->second;
      }
    }
    return nullptr;
  }

  void Put(const Key& key, netclus::exec::CoverPtr cover) {
    entries_.emplace_front(key, std::move(cover));
    if (entries_.size() > kReplayCoverLru) entries_.pop_back();
  }

 private:
  std::list<std::pair<Key, netclus::exec::CoverPtr>> entries_;
};

// Replays the kept responses of `w` in (state, submit time) order until
// `budget_s` of replay time is spent.
void ReplayRequests(const Window& w, const Streams& streams,
                    const SnapshotPtr& v1, const WritePool& pool,
                    double budget_s, Replay* out) {
  netclus::exec::ExecContext ctx;
  const netclus::exec::Planner planner(&ctx);
  CoverLru covers;
  StateWalker walker(v1, pool);
  const std::vector<int64_t> ops = ResolveOps(w.records);
  std::vector<const Kept*> order;
  for (const Kept& k : w.kept) {
    if (ops[k.record] >= 0) order.push_back(&k);  // aged out: see Verify
  }
  std::sort(order.begin(), order.end(), [&](const Kept* a, const Kept* b) {
    return std::make_pair(ops[a->record], w.records[a->record].submit_s) <
           std::make_pair(ops[b->record], w.records[b->record].submit_s);
  });
  const Clock::time_point t0 = Clock::now();
  for (const Kept* kept : order) {
    if (Since(t0) > budget_s) break;
    const Record& rec = w.records[kept->record];
    walker.AdvanceTo(ops[kept->record]);
    ++out->requests;
    const uint64_t root = out->AddSpan(0, "serve", "serve.request",
                                       rec.submit_s, rec.done_s);
    double cursor = rec.submit_s;
    Engine::QuerySpec spec;
    spec.k = streams.specs[rec.spec].k;
    spec.tau_m = streams.specs[rec.spec].tau_m;
    Clock::time_point t = Clock::now();
    const netclus::exec::QueryPlan plan =
        planner.Plan(spec.ToRequest(kQueryThreads), walker.index(), 1);
    double d = Since(t);
    out->plan_s.push_back(d);
    out->AddSpan(root, "exec", "exec.plan", cursor, cursor + d);
    cursor += d;
    const CoverLru::Key key{ops[kept->record], plan.instance,
                            std::bit_cast<uint64_t>(plan.tau_m)};
    netclus::exec::CoverPtr cover;
    auto build = [&] {
      return std::make_shared<const netclus::exec::BuiltCover>(
          netclus::exec::BuildCover(walker.index(), walker.store(),
                                    plan.tau_m, plan.instance, kQueryThreads));
    };
    if (!rec.cache_hit && !rec.cover_shared) {
      netclus::store::BufferPool* buffers = PoolOf(walker.index());
      const auto before = buffers != nullptr
                              ? buffers->GetStats()
                              : netclus::store::BufferPool::Stats{};
      t = Clock::now();
      cover = build();
      d = Since(t);
      if (buffers != nullptr) {
        const auto after = buffers->GetStats();
        out->pool_faults += after.faults - before.faults;
        out->pool_evictions += after.evictions - before.evictions;
        out->pool_touches += after.touches - before.touches;
      }
      out->build_s.push_back(d);
      out->cover_bytes += static_cast<double>(cover->bytes);
      out->AddSpan(root, "exec", "exec.cover_build", cursor, cursor + d);
      cursor += d;
      covers.Put(key, cover);
    }
    if (!rec.cache_hit) {
      if (cover == nullptr) cover = covers.Get(key);
      if (cover == nullptr) {
        ++out->unbuilt_covers;
        cover = build();
        covers.Put(key, cover);
      }
      const netclus::exec::Executor executor(&walker.index(), &walker.store(),
                                             &walker.sites(), &ctx);
      t = Clock::now();
      const netclus::index::QueryResult result =
          executor.ExecuteOnCover(plan, cover, rec.cover_shared);
      d = Since(t);
      out->solve_s.push_back(d);
      out->AddSpan(root, "tops", "tops.solve", cursor, cursor + d);
      if (!SameAnswer(result, kept->result)) ++out->mismatched;
    }
  }
}

void ReplayPublishes(const netclus::serve::IndexSnapshot& v1,
                     const WritePool& pool,
                     const std::vector<WriteRecord>& writes, Replay* out) {
  netclus::traj::TrajectoryStore store(v1.store(), &v1.network());
  netclus::index::MultiIndex index = v1.index().Clone();
  for (const WriteRecord& w : writes) {
    const uint64_t root = out->AddSpan(0, "serve", "serve.publish", w.due_s,
                                       w.visible_s);
    Clock::time_point t = Clock::now();
    netclus::index::MultiIndex next = index.Clone();
    const double clone = Since(t);
    double apply = 0.0;
    for (size_t i = 0; i < kAddsPerBatch; ++i) {
      const netclus::traj::TrajId id =
          store.Add(pool.adds[w.batch * kAddsPerBatch + i]);
      t = Clock::now();
      next.AddTrajectory(store, id);
      apply += Since(t);
    }
    const netclus::traj::TrajId removed = pool.removes[w.batch];
    store.Remove(removed);
    t = Clock::now();
    next.RemoveTrajectory(removed);
    apply += Since(t);
    index = std::move(next);
    out->clone_s.push_back(clone);
    out->apply_s += apply;
    out->apply_ops += kAddsPerBatch + 1;
    out->AddSpan(root, "netclus", "netclus.clone", w.due_s, w.due_s + clone);
    out->AddSpan(root, "netclus", "netclus.apply", w.due_s + clone,
                 w.due_s + clone + apply);
  }
}

// --- stand-alone layer probes ---------------------------------------------------------

// Decodes every TL list of every instance through the public list view;
// median of three passes, ns per entry.
double DecodeNsPerEntry(const netclus::index::MultiIndex& index) {
  std::vector<double> passes;
  uint64_t checksum = 0;
  for (int pass = 0; pass < 3; ++pass) {
    uint64_t entries = 0;
    const Clock::time_point t = Clock::now();
    for (size_t p = 0; p < index.num_instances(); ++p) {
      for (const netclus::index::Cluster& c : index.instance(p).clusters()) {
        c.tl.ForEach([&](const netclus::index::TlEntry& e) {
          checksum += e.traj;
          ++entries;
        });
      }
    }
    passes.push_back(entries > 0 ? Since(t) * 1e9 / entries : 0.0);
  }
  if (checksum == 0) std::printf("info decode checksum = 0\n");
  return Median(passes);
}

struct SpfProbe {
  double search_us = 0.0;
  double settled_per_search = 0.0;
};

// BoundedRoundTrip at each instance's neighbour radius 4 R (1 + γ) over a
// fixed seeded sample of 64 nodes.
SpfProbe ProbeSpf(const Engine& engine, const netclus::index::MultiIndex& index,
                  uint64_t seed) {
  SpfProbe probe;
  auto query = engine.distance_backend().MakeQuery();
  SplitMix64 rng(seed + 101);
  std::vector<netclus::graph::NodeId> nodes(64);
  for (auto& n : nodes) {
    n = static_cast<netclus::graph::NodeId>(
        rng.Below(engine.network().num_nodes()));
  }
  size_t searches = 0;
  uint64_t settled = 0;
  const Clock::time_point t = Clock::now();
  for (size_t p = 0; p < index.num_instances(); ++p) {
    const double radius = 4.0 * index.instance(p).radius_m() * (1.0 + kGamma);
    for (const auto n : nodes) {
      (void)query->BoundedRoundTrip(n, radius);
      settled += query->last_settled_count();
      ++searches;
    }
  }
  if (searches > 0) {
    probe.search_us = Since(t) * 1e6 / searches;
    probe.settled_per_search = static_cast<double>(settled) / searches;
  }
  return probe;
}

// --- main ------------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args->trace = std::atoi(value.c_str());
    else if (flag == "--work-dir") args->work_dir = value;
    else if (flag == "--commit") args->commit = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Lateness WriterLateness(const Window& w) {
  std::vector<double> due, sent;
  for (const WriteRecord& r : w.writes) {
    due.push_back(r.due_s);
    sent.push_back(r.sent_s);
  }
  return SummarizeLateness(due, sent, kWriteIntervalS);
}

std::vector<double> VisibleLatencies(const std::vector<WriteRecord>& writes) {
  std::vector<double> out;
  for (const WriteRecord& w : writes) out.push_back(w.visible_s - w.due_s);
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  Workload workload{};
  if (!ParseArgs(argc, argv, &args) || !ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload distinct_tau|zipf_hot|update_mix "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--commit SHA]\n");
    return 2;
  }
  PinEnvironment();
  const bool traced = args.trace != 0;
  const bool updates = workload == Workload::kUpdateMix;
  // A traced run splits its time between an untraced and a traced window
  // (their qps difference is the tracing overhead).
  const double window_s = traced ? args.seconds / 2.0 : args.seconds;

  const netclus::data::Dataset d =
      netclus::data::MakeBeijingLite(kDatasetScale, kDatasetSeed);
  const Streams streams = MakeStreams(
      workload, args.seed, workload == Workload::kZipfHot ? (1u << 20) : (1u << 16));
  const size_t batches = std::max<size_t>(
      kProbeBatches, static_cast<size_t>(window_s / kWriteIntervalS) + 2);
  const WritePool pool = MakeWritePool(d, args.seed, batches);

  // Set-up, several times; the last one serves.
  const std::string index_path = args.work_dir + "/index-" +
                                 std::to_string(getpid()) + ".ncx";
  std::vector<double> setup_s, build_s, save_s, load_s;
  Setup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup = Setup{};
    setup = RunSetup(d, workload, index_path);
    setup_s.push_back(setup.total_s);
    build_s.push_back(setup.build_s);
    save_s.push_back(setup.save_s);
    load_s.push_back(setup.load_s);
  }
  // Hand the heap the repeated set-ups freed back to the system, so the
  // window's resident set is live memory, not set-up leftovers.
  malloc_trim(0);
  NetClusServer* server = setup.server.get();
  const SnapshotPtr v1 = server->snapshot();
  netclus::store::BufferPool* index_pool = PoolOf(v1->index());

  std::printf("config workload=%s seed=%llu seconds=%g trace=%d commit=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, args.commit.c_str());
  std::printf(
      "config nodes=%zu trajectories=%zu sites=%zu instances=%zu "
      "simd=%s spf=%s page_budget_bytes=%llu sched_workers=%u "
      "query_threads=%u build_threads=%u nproc=%u\n",
      d.num_nodes(), d.num_trajectories(), d.num_sites(),
      v1->index().num_instances(),
      netclus::store::simd::KernelName(netclus::store::simd::ActiveKernel()),
      netclus::graph::spf::BackendName(setup.engine->distance_backend().kind()),
      static_cast<unsigned long long>(
          index_pool != nullptr ? index_pool->GetStats().budget_bytes : 0),
      kSchedulerWorkers, kQueryThreads, kBuildThreads,
      std::thread::hardware_concurrency());

  const uint64_t sample_salt = args.seed * 0x9e3779b97f4a7c15ULL;
  auto sampled = [&](uint64_t i) {
    return SplitMix64(sample_salt ^ i).Next() % kVerifySampleEvery == 0;
  };
  auto keep_untraced = [&](uint64_t i, uint32_t) {
    return workload != Workload::kZipfHot || sampled(i);
  };

  const auto pool_before = index_pool != nullptr
                               ? index_pool->GetStats()
                               : netclus::store::BufferPool::Stats{};
  // The untraced window: every end-to-end number comes from here.
  if (workload == Workload::kZipfHot) WarmUp(server, streams);
  Window a = RunWindow(server, *v1, streams, window_s,
                       updates ? &pool : nullptr, keep_untraced);
  if (index_pool != nullptr) {
    const auto ps = index_pool->GetStats();
    std::printf("info buffer_pool over the window: touches=%llu faults=%llu "
                "evictions=%llu (set-up: touches=%llu faults=%llu)\n",
                static_cast<unsigned long long>(ps.touches - pool_before.touches),
                static_cast<unsigned long long>(ps.faults - pool_before.faults),
                static_cast<unsigned long long>(ps.evictions -
                                                pool_before.evictions),
                static_cast<unsigned long long>(pool_before.touches),
                static_cast<unsigned long long>(pool_before.faults));
  }
  const Verdict va = Verify(a, streams, v1, pool);
  size_t attempted = a.reads + a.writes_attempted;
  size_t failed = (a.reads - a.ok) + a.writes_rejected + va.mismatched;
  size_t mismatched = va.mismatched;
  size_t aged_out = va.aged_out;
  size_t checked = va.checked;
  size_t replays = va.replays;

  const Lateness lateness = WriterLateness(a);
  bool valid = !lateness.fell_behind;
  const double qps_untraced = Ratio(static_cast<double>(a.ok), a.wall_s);

  std::vector<Metric> metrics;
  if (!traced) {
    const double quality = QualityVsGreedy(*v1);
    const std::vector<double>& lat = a.latencies_s;
    const double error_rate = Ratio(static_cast<double>(failed), attempted);
    const double stale_ratio =
        Ratio(static_cast<double>(a.stale), static_cast<double>(a.ok));
    PrintPercentile("latency_p99_ms", lat, 0.99);
    std::printf("info error_rate = %.6f (failed %zu of %zu)\n", error_rate,
                failed, attempted);
    std::printf("info stale_ratio = %.6f (stale %llu of %llu kOk)\n",
                stale_ratio, static_cast<unsigned long long>(a.stale),
                static_cast<unsigned long long>(a.ok));
    std::printf("info verified = %zu responses, %zu replays, %zu mismatched, "
                "%zu stale with aged-out snapshot\n",
                checked, replays, va.mismatched, aged_out);
    std::printf("info generator_cpu_s = %.4f of %.4f s wall\n",
                a.generator_cpu_s, a.wall_s);
    if (updates) {
      const std::vector<double> visible = VisibleLatencies(a.writes);
      std::printf("info update_visible_p50_ms = %.4f ms (n=%zu)\n",
                  1e3 * Median(visible), visible.size());
      PrintPercentile("update_visible_p90_ms", visible, 0.90);
      std::printf("info writer_lateness_p90_ms = %.3f max_ms = %.3f "
                  "sends = %zu valid = %s\n",
                  1e3 * lateness.p90_s, 1e3 * lateness.max_s, lateness.sends,
                  valid ? "true" : "false");
    }
    if (!SelectPercentile(lat, 0.90).supported) {
      std::printf("info latency_p90_ms has fewer than %zu samples beyond it\n",
                  Percentile::kMinBeyond);
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"qps", qps_untraced, "1/s"},
        {"latency_p50_ms", 1e3 * SelectPercentile(lat, 0.50).value, "ms"},
        {"latency_p90_ms", 1e3 * SelectPercentile(lat, 0.90).value, "ms"},
        {"ok_ratio", 1.0 - error_rate, "ratio"},
        {"peak_rss_mb", a.peak_rss_mb, "MiB"},
        {"quality_vs_greedy", quality, "ratio"},
    };
  } else {
    // The traced window, on a fresh server over the same engine.
    setup.server->Shutdown();
    std::unique_ptr<NetClusServer> traced_server =
        setup.engine->Serve(MakeServerOptions(/*traced=*/true));
    auto keep_traced = [&](uint64_t i, uint32_t) {
      return workload != Workload::kZipfHot || i < 20000 || sampled(i);
    };
    if (workload == Workload::kZipfHot) WarmUp(traced_server.get(), streams);
    const auto stats0 = traced_server->stats();
    Window b = RunWindow(traced_server.get(), *v1, streams, window_s,
                         updates ? &pool : nullptr, keep_traced);
    const Verdict vb = Verify(b, streams, v1, pool);
    if (updates) {
      const Lateness late = WriterLateness(b);
      valid = valid && !late.fell_behind;
      std::printf("info writer_lateness_p90_ms = %.3f max_ms = %.3f "
                  "(traced window)\n",
                  1e3 * late.p90_s, 1e3 * late.max_s);
    }
    attempted += b.reads + b.writes_attempted;
    failed += (b.reads - b.ok) + b.writes_rejected + vb.mismatched;
    mismatched += vb.mismatched;
    aged_out += vb.aged_out;
    checked += vb.checked;
    replays += vb.replays;
    std::vector<WriteRecord> writes = b.writes;
    if (!updates) {
      writes = ProbePublishes(traced_server.get(), pool, &attempted, &failed);
    }
    // Update-pipeline totals after the publishes, wherever they came from.
    const auto updates_end = traced_server->stats().updates;

    Replay replay;
    ReplayRequests(b, streams, v1, pool, /*budget_s=*/args.seconds, &replay);
    // Publishes belong to the traced workload on update_mix. On the
    // read-only workloads they come from the post-window probe, so they
    // give the netclus numbers but stay out of the self-time shares.
    Replay probe;
    ReplayPublishes(*v1, pool, writes, updates ? &replay : &probe);
    const Replay& publishes = updates ? replay : probe;
    failed += replay.mismatched;
    mismatched += replay.mismatched;

    const std::map<std::string, double> self = SelfTimeByLayer(replay.spans);
    double roots = 0.0;
    for (const Span& s : replay.spans) {
      if (s.parent == 0) roots += s.end - s.start;
    }
    std::string dominant;
    double dominant_share = -1.0;
    for (const auto& [layer, t] : self) {
      const double share = Ratio(t, roots);
      std::printf("info self_time_share %s = %.4f\n", layer.c_str(), share);
      if (share > dominant_share) {
        dominant = layer;
        dominant_share = share;
      }
    }
    std::printf("info dominant_self_time_layer = %s (share %.4f over %zu "
                "requests, %zu publishes)\n",
                dominant.c_str(), dominant_share, replay.requests,
                updates ? writes.size() : size_t{0});
    std::printf("info replay unbuilt_shared_covers = %zu mismatched = %zu\n",
                replay.unbuilt_covers, replay.mismatched);

    // netclus save/load: from set-up on distinct_tau, else timed here.
    double save = Median(save_s), load = Median(load_s);
    uint64_t file_bytes = setup.file_bytes;
    if (workload != Workload::kDistinctTau) {
      std::string error;
      Clock::time_point t = Clock::now();
      const bool saved = netclus::index::SaveIndex(v1->index(), index_path, &error);
      save = Since(t);
      file_bytes = FileBytes(index_path);
      netclus::index::MultiIndex loaded;
      t = Clock::now();
      const bool ok = saved && netclus::index::LoadIndex(
                                   index_path, d.num_nodes(),
                                   v1->store().total_count(), &loaded, &error,
                                   nullptr, nullptr,
                                   netclus::index::IndexLoadMode::kMmap);
      load = Since(t);
      if (!ok) {
        std::fprintf(stderr, "save/load probe failed: %s\n", error.c_str());
        ++failed;
        ++mismatched;
      }
    }
    const SpfProbe spf = ProbeSpf(*setup.engine, v1->index(), args.seed);
    const double decode_ns = DecodeNsPerEntry(v1->index());

    const auto& s0 = stats0;
    const auto& s1 = b.stats;
    const double reads = static_cast<double>(b.reads);
    const double ok = static_cast<double>(b.ok);
    std::vector<double> queue_s;
    for (const Record& r : b.records) {
      if (r.status == StatusCode::kOk) queue_s.push_back(r.queue_s);
    }
    const double qps_traced = Ratio(ok, b.wall_s);
    const double builds = static_cast<double>(replay.build_s.size());
    const double result_lookups =
        static_cast<double>((s1.cache.hits - s0.cache.hits) +
                            (s1.cache.misses - s0.cache.misses));
    const double cover_lookups = static_cast<double>(
        (s1.cover_cache.hits - s0.cover_cache.hits) +
        (s1.cover_cache.misses - s0.cover_cache.misses));
    const double busy_s =
        1e-9 * static_cast<double>(s1.scheduler.busy_ns - s0.scheduler.busy_ns);
    constexpr double kMiB = 1024.0 * 1024.0;
    metrics = {
        {"serve.queue_wait_ms_p50", 1e3 * Median(queue_s), "ms"},
        {"serve.result_cache.hit_ratio",
         Ratio(static_cast<double>(s1.cache.hits - s0.cache.hits),
               result_lookups),
         "ratio"},
        {"serve.cover_cache.hit_ratio",
         Ratio(static_cast<double>(s1.cover_cache.hits - s0.cover_cache.hits),
               cover_lookups),
         "ratio"},
        {"serve.cover_builds_per_query",
         Ratio(static_cast<double>(s1.exec.covers_built - s0.exec.covers_built),
               ok),
         "count"},
        {"serve.cover_cache.resident_mb",
         static_cast<double>(s1.cover_cache.resident_bytes) / kMiB, "MiB"},
        {"serve.shed_ratio", Ratio(static_cast<double>(b.shed), reads),
         "ratio"},
        {"serve.carried_entries",
         static_cast<double>((s1.cache.carried - s0.cache.carried) +
                             (s1.cover_cache.carried - s0.cover_cache.carried)),
         "count"},
        {"serve.update.visible_ms_p50", 1e3 * Median(VisibleLatencies(writes)),
         "ms"},
        {"serve.update.apply_ms_per_publish",
         1e3 * Ratio(updates_end.apply_seconds - s0.updates.apply_seconds,
                     static_cast<double>(updates_end.batches_published -
                                         s0.updates.batches_published)),
         "ms"},
        {"serve.unattributed_share", Ratio(self.count("serve") ? self.at("serve") : 0.0, roots),
         "ratio"},
        {"util.sched.utilization",
         Ratio(busy_s, kSchedulerWorkers * b.wall_s), "ratio"},
        {"util.sched.stolen_per_query",
         Ratio(static_cast<double>(s1.scheduler.stolen - s0.scheduler.stolen),
               reads),
         "count"},
        {"exec.plan_us", 1e6 * Median(replay.plan_s), "us"},
        {"exec.cover_build_ms_p50", 1e3 * Median(replay.build_s), "ms"},
        {"exec.cover_build_share", replay.LayerShare("exec.cover_build"),
         "ratio"},
        {"exec.cover_mb_per_build", Ratio(replay.cover_bytes, builds) / kMiB,
         "MiB"},
        {"tops.solve_ms_p50", 1e3 * Median(replay.solve_s), "ms"},
        {"tops.solve_share", replay.LayerShare("tops.solve"), "ratio"},
        {"store.pool.faults_per_build",
         Ratio(static_cast<double>(replay.pool_faults), builds), "count"},
        {"store.pool.evictions_per_build",
         Ratio(static_cast<double>(replay.pool_evictions), builds), "count"},
        {"store.pool.touches_per_build",
         Ratio(static_cast<double>(replay.pool_touches), builds), "count"},
        {"store.decode_ns_per_entry", decode_ns, "ns"},
        {"netclus.build_s", Median(build_s), "s"},
        {"netclus.save_s", save, "s"},
        {"netclus.load_s", load, "s"},
        {"netclus.index_mb",
         static_cast<double>(v1->index().MemoryBytes()) / kMiB, "MiB"},
        {"netclus.file_mb", static_cast<double>(file_bytes) / kMiB, "MiB"},
        {"netclus.clone_ms", 1e3 * Median(publishes.clone_s), "ms"},
        {"netclus.apply_us_per_op",
         1e6 * Ratio(publishes.apply_s, static_cast<double>(publishes.apply_ops)),
         "us"},
        {"graph.spf.search_us", spf.search_us, "us"},
        {"graph.spf.settled_per_search", spf.settled_per_search, "count"},
        {"obs.trace_overhead_pct",
         100.0 * Ratio(qps_untraced - qps_traced, qps_untraced), "%"},
    };
    std::printf("info qps untraced = %.3f traced = %.3f\n", qps_untraced,
                qps_traced);
    std::printf("info verified = %zu responses, %zu replays, %zu stale with "
                "aged-out snapshot\n",
                checked, replays, aged_out);
    traced_server->Shutdown();
  }
  setup.server->Shutdown();
  std::remove(index_path.c_str());

  // Wrong answers and an invalid schedule fail the run; refused reads and
  // writes are errors the metrics report (ok_ratio), not wrong answers.
  const bool correct = mismatched == 0 && valid;
  if (!valid) {
    std::printf("info run invalid: the writer fell more than one interval "
                "behind its schedule\n");
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
