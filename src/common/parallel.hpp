#pragma once

/// \file parallel.hpp
/// \brief Deterministic parallel execution primitives: a fork/join thread
/// pool (static chunks, or a claim-next cursor for batch jobs) and
/// fixed-order (pairwise) reductions.
///
/// The particle filter's per-particle stages (predict / raycast / weight)
/// are embarrassingly parallel, but the repo's headline guarantee — replays
/// are *bitwise* reproducible from a seed — must survive parallelization at
/// any thread count. Two rules make that possible (DESIGN.md §9):
///
///  1. **Per-index results, no work stealing.** `ThreadPool::parallel_for`
///     splits `[0, n)` into exactly `threads()` contiguous chunks with a
///     fixed chunk→lane assignment (lane 0 is the calling thread). Chunk
///     boundaries depend only on `(n, threads())`, and — crucially — every
///     per-index result must depend only on the index, never on the chunk it
///     landed in. Under that discipline the output is identical for *any*
///     lane count, including 1 (which runs the body inline with zero
///     synchronization — the exact serial path). The scenario matrix runs
///     coarse items of uneven cost instead; `ThreadPool::claim_each` lets
///     each lane claim the next index from one cursor. The lane that runs an
///     index then depends on timing, and is still not observable, because
///     results are written per index. The frontier search hands out single
///     probes from its own ready set, one `parallel_for` index per lane.
///  2. **Fixed-order reductions.** Floating-point addition does not
///     associate, so sums must not be accumulated per-chunk. `pairwise_reduce`
///     computes a cascade (pairwise-tree) sum whose association structure is
///     a pure function of the element count — independent of thread count
///     and scheduling. (It also happens to have O(log n) error growth vs the
///     O(n) of sequential summation.) The per-update reductions here are
///     O(n_particles) over doubles — memory-bound and tiny next to the
///     per-particle stages — so they run serially; determinism, not speed,
///     is why they exist.
///
/// The pool is intentionally minimal: persistent workers parked on a
/// condition variable, one fork/join region at a time, no task queue. That
/// is all the filter and the batch jobs need, and every extra feature
/// (stealing, nested regions, futures) is a determinism hazard.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace srl {

/// Maximum lanes a pool will run, however many cores the host reports.
inline constexpr int kMaxThreads = 64;

/// Resolve a thread-count knob: `requested > 0` is used as-is (clamped to
/// [1, kMaxThreads]); `requested <= 0` means "hardware default" — the
/// `SRL_THREADS` environment variable when set to a positive integer,
/// otherwise std::thread::hardware_concurrency(). The env override applies
/// *only* to the default, so tests that pin explicit counts (the
/// thread-invariance suite) are immune to it while CI can sweep the whole
/// suite through 1/4/8 lanes without touching configs.
int resolve_thread_count(int requested);

/// Fork/join pool with `threads()` lanes: lane 0 is the calling thread,
/// lanes 1.. are persistent workers. With one lane no workers are spawned
/// and `parallel_for` is a plain inline loop.
class ThreadPool {
 public:
  /// `n_threads` is resolved via resolve_thread_count().
  explicit ThreadPool(int n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return n_lanes_; }

  /// Chunk body: run indices [begin, end) on `lane`. Bodies must be
  /// exception-free on worker lanes and must only write per-index state
  /// (plus lane-private scratch) — that is the determinism contract.
  using ChunkBody = std::function<void(int lane, std::size_t begin,
                                       std::size_t end)>;

  /// Split [0, n) into threads() contiguous chunks — chunk c covers
  /// [c*n/T, (c+1)*n/T) — and run chunk c on lane c, blocking until every
  /// chunk finished. Empty chunks (n < T) are skipped. Regions do not nest:
  /// a body must not call parallel_for on the same pool.
  void parallel_for(std::size_t n, const ChunkBody& body);

  /// Index body: run index `i` on `lane`, under ChunkBody's contract.
  using IndexBody = std::function<void(int lane, std::size_t i)>;

  /// Run body(lane, i) once for every i in [0, n). Each lane takes the next
  /// unclaimed index from one shared cursor, in ascending order, until all
  /// n are taken, so no lane idles while work remains. Which lane runs an
  /// index depends on timing: the body must write only index i's result.
  /// If the body throws on lane 0, the cursor closes, the workers finish
  /// the indices they hold, and the exception propagates.
  void claim_each(std::size_t n, const IndexBody& body);

  /// Lower bound of lane `lane`'s chunk over [0, n) with `lanes` lanes.
  /// Exposed so tests can pin the chunk geometry.
  static std::size_t chunk_begin(std::size_t n, int lanes, int lane);

 private:
  void worker_loop(int lane);
  void run_chunk(const ChunkBody& body, std::size_t n, int lane) const;

  const int n_lanes_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_{0};  ///< bumped once per parallel_for region
  int pending_{0};               ///< workers still inside the current region
  const ChunkBody* body_{nullptr};
  std::size_t n_{0};
  bool stop_{false};
};

/// Fixed-structure pairwise (cascade) reduction of get(i) for i in [0, n):
/// the association tree depends only on `n`, so the result is bitwise
/// reproducible regardless of thread count or scheduling. `get` must be a
/// pure function of the index.
template <typename Get>
double pairwise_reduce(std::size_t begin, std::size_t n, const Get& get) {
  if (n <= 8) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += get(begin + j);
    return sum;
  }
  const std::size_t half = n / 2;
  return pairwise_reduce(begin, half, get) +
         pairwise_reduce(begin + half, n - half, get);
}

template <typename Get>
double pairwise_reduce(std::size_t n, const Get& get) {
  return pairwise_reduce(std::size_t{0}, n, get);
}

/// Deterministic sum of a contiguous array (fixed pairwise order).
inline double pairwise_sum(std::span<const double> values) {
  return pairwise_reduce(values.size(),
                         [&values](std::size_t i) { return values[i]; });
}

}  // namespace srl
