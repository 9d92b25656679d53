#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/contracts.hpp"

namespace srl {

int resolve_thread_count(int requested) {
  if (requested > 0) return std::min(requested, kMaxThreads);
  if (const char* env = std::getenv("SRL_THREADS"); env != nullptr) {
    const int from_env = std::atoi(env);
    if (from_env > 0) return std::min(from_env, kMaxThreads);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, kMaxThreads);
}

ThreadPool::ThreadPool(int n_threads)
    : n_lanes_{resolve_thread_count(n_threads)} {
  workers_.reserve(static_cast<std::size_t>(n_lanes_ - 1));
  for (int lane = 1; lane < n_lanes_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{mutex_};
    stop_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::chunk_begin(std::size_t n, int lanes, int lane) {
  // Monotone in `lane`, chunk_begin(n, T, 0) == 0, chunk_begin(n, T, T) == n:
  // the chunks partition [0, n) exactly, with sizes differing by at most 1.
  return n * static_cast<std::size_t>(lane) / static_cast<std::size_t>(lanes);
}

void ThreadPool::run_chunk(const ChunkBody& body, std::size_t n,
                           int lane) const {
  const std::size_t begin = chunk_begin(n, n_lanes_, lane);
  const std::size_t end = chunk_begin(n, n_lanes_, lane + 1);
  SYNPF_INVARIANT_MSG(begin <= end && end <= n,
                      "chunk bounds must partition the index range");
  if (begin < end) body(lane, begin, end);
}

void ThreadPool::parallel_for(std::size_t n, const ChunkBody& body) {
  if (n == 0) return;
  if (n_lanes_ == 1) {
    // The exact serial path: no locks, no wakeups, no memory traffic.
    body(0, 0, n);
    return;
  }

  {
    std::lock_guard lock{mutex_};
    SYNPF_EXPECTS_MSG(pending_ == 0 && body_ == nullptr,
                      "parallel_for regions must not nest on one pool");
    body_ = &body;
    n_ = n;
    pending_ = n_lanes_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();

  // Lane 0 runs on the calling thread. If the body throws here, the workers
  // must still drain before the region state is torn down.
  try {
    run_chunk(body, n, 0);
  } catch (...) {
    std::unique_lock lock{mutex_};
    cv_done_.wait(lock, [this] { return pending_ == 0; });
    body_ = nullptr;
    throw;
  }

  std::unique_lock lock{mutex_};
  cv_done_.wait(lock, [this] { return pending_ == 0; });
  body_ = nullptr;
}

void ThreadPool::claim_each(std::size_t n, const IndexBody& body) {
  std::atomic<std::size_t> next{0};
  // One single-index chunk per lane that gets work; each lane then drains
  // the cursor.
  parallel_for(std::min(n, static_cast<std::size_t>(n_lanes_)),
               [&](int lane, std::size_t, std::size_t) {
                 for (std::size_t i = next.fetch_add(1); i < n;
                      i = next.fetch_add(1)) {
                   try {
                     body(lane, i);
                   } catch (...) {
                     next.store(n);
                     throw;
                   }
                 }
               });
}

void ThreadPool::worker_loop(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    const ChunkBody* body = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock lock{mutex_};
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      n = n_;
    }
    // Worker bodies are noexcept by contract; an escaping exception would
    // std::terminate, which is the correct loud failure for a broken chunk.
    run_chunk(*body, n, lane);
    {
      std::lock_guard lock{mutex_};
      --pending_;
      SYNPF_INVARIANT_MSG(pending_ >= 0, "pool join underflow");
    }
    cv_done_.notify_one();
  }
}

}  // namespace srl
