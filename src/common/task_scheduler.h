#ifndef GSTREAM_COMMON_TASK_SCHEDULER_H_
#define GSTREAM_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gstream {

namespace internal {

/// One slot of work. Nodes live in per-executor arenas owned by the
/// scheduler; deque slots carry raw pointers (trivially copyable, so the
/// lock-free buffer never copies a non-trivial type concurrently).
struct TaskNode {
  std::function<void()> fn;
};

/// Chase-Lev-style work-stealing deque over `TaskNode*` slots.
///
/// The owner thread pushes and pops at the bottom (LIFO); any other thread
/// steals from the top (FIFO), arbitrated by a CAS on `top_`. The buffer
/// grows by doubling; retired buffers stay alive until destruction because a
/// slow thief may still read a slot through a stale buffer pointer (the CAS
/// on `top_` decides whether that read wins, and the copied live range is
/// identical across buffers).
///
/// Memory ordering is deliberately conservative: `top_`/`bottom_` use
/// seq_cst for the Dekker-style owner/thief handshake and the slots are
/// atomics, so every cross-thread access is on an atomic object — the
/// implementation is TSan-clean by construction, not by fence modeling
/// (TSan historically does not model standalone fences). At the scheduler's
/// task grain (shard groups, microseconds each) the seq_cst cost is noise.
class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(size_t capacity = 256);

  /// Owner only. Grows the buffer when full.
  void PushBottom(TaskNode* node);

  /// Owner only. Returns nullptr when empty (or when a thief won the race
  /// for the last element).
  TaskNode* PopBottom();

  /// Any thread. Returns nullptr when empty or when the CAS lost a race
  /// (callers treat both as "try elsewhere").
  TaskNode* StealTop();

  /// Approximate size (owner or external observer; racy but monotone enough
  /// for queue-depth stats).
  size_t ApproxSize() const;

 private:
  struct Buffer {
    explicit Buffer(size_t cap)
        : capacity(cap), mask(cap - 1),
          slots(new std::atomic<TaskNode*>[cap]) {}
    size_t capacity;
    size_t mask;
    std::unique_ptr<std::atomic<TaskNode*>[]> slots;

    TaskNode* Get(int64_t i) const {
      return slots[static_cast<size_t>(i) & mask].load(std::memory_order_relaxed);
    }
    void Put(int64_t i, TaskNode* n) {
      slots[static_cast<size_t>(i) & mask].store(n, std::memory_order_relaxed);
    }
  };

  Buffer* Grow(Buffer* old, int64_t top, int64_t bottom);

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  std::vector<std::unique_ptr<Buffer>> retired_;  ///< Owner only.
};

}  // namespace internal

/// Work-stealing batch scheduler for the engines' sharded window execution
/// (`ViewEngineBase::ApplyBatch`). Replaces the PR 2 fixed `ThreadPool`
/// whose one-task-per-executor striping starved under shard skew.
///
/// Topology: `threads` executors — executor 0 is the *coordinator* (the
/// calling thread, which executes work inside `Wait()`), executors 1..P-1
/// are worker threads. Every executor owns a Chase-Lev deque; idle
/// executors steal from victims in randomized order, so a burst of uneven
/// tasks balances itself: while one executor grinds a hot task, the others
/// drain everything else one steal at a time.
///
/// ## Lifecycle (the contract the old ThreadPool left implicit)
///
///   construct -> { Submit* ; Wait }* -> Shutdown (or destructor)
///
///  * `Submit` and `Wait` are coordinator-only entry points: the scheduler
///    is owned by one engine and driven from one coordinator thread at a
///    time. Only the submitted tasks run concurrently.
///  * `Submit` after `Shutdown` (or during it) is REJECTED: it logs an
///    error, returns false, and the task never runs. The old pool silently
///    enqueued into a dead queue — a leak that looked like a hang.
///  * `Wait` returns once every submitted (and spawned) task has finished;
///    it must be called before destroying state captured by the tasks.
///    After `Wait` returns, all task arenas are reset — no captures
///    outlive the window barrier.
///  * `Shutdown` joins the workers and is idempotent; the destructor calls
///    it. Tasks still queued at shutdown are never executed (`Wait` first
///    if that matters — the engines always do).
///
/// ## Task rules
///
/// Tasks must not throw (the engines' update paths are exception-free by
/// construction). A *running* task may `Spawn` subtasks — they are pushed
/// to the executing thread's own deque (owner push, Chase-Lev-legal) and
/// are stolen by idle executors; `Wait` covers them. Tasks must not call
/// `Submit`/`Wait`/`Shutdown`.
class TaskScheduler {
 public:
  /// `threads` executors total: `threads - 1` workers plus the coordinator.
  /// `threads <= 1` creates no workers — Submit+Wait degenerate to inline
  /// sequential execution on the calling thread (and steals() stays 0).
  explicit TaskScheduler(int threads);

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  ~TaskScheduler();

  /// Total executors (workers + the waiting coordinator).
  int size() const { return static_cast<int>(executors_.size()); }

  /// Enqueues one task onto the coordinator's deque (coordinator only).
  /// Returns false — and drops the task, loudly — after Shutdown.
  bool Submit(std::function<void()> fn);

  /// Enqueues a subtask from *inside* a running task, onto the executing
  /// thread's own deque. Only valid on a thread currently running one of
  /// this scheduler's tasks; returns false otherwise (and from a dead
  /// scheduler, mirroring Submit).
  bool Spawn(std::function<void()> fn);

  /// Coordinator only: executes queued tasks (own deque first, then
  /// randomized steals) until every task — submitted or spawned — has
  /// finished, then resets the task arenas.
  void Wait();

  /// Joins the workers; idempotent. Further Submits are rejected.
  void Shutdown();

  /// True once Shutdown began (Submit will reject).
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  // ----- observability (relaxed counters; exact after Wait returns) -----

  /// Tasks acquired via a cross-executor steal.
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  /// Tasks executed to completion.
  uint64_t executed() const { return executed_.load(std::memory_order_relaxed); }

  /// Tasks accepted by Submit + Spawn.
  uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }

  /// High-water mark of the coordinator deque's depth at Submit time (the
  /// micro_sched calibration bench reads this).
  uint64_t max_queue_depth() const {
    return max_queue_depth_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-executor state: the deque plus a block arena for task nodes. The
  /// arena is owner-mutated only (Submit/Spawn allocate on the pushing
  /// thread) and reset wholesale at the Wait barrier, when no task is in
  /// flight.
  struct Executor {
    internal::WorkStealingDeque deque;
    std::vector<std::unique_ptr<internal::TaskNode[]>> blocks;
    size_t block_used = 0;  ///< Slots used in blocks.back().
    uint64_t steal_seed;    ///< Per-executor xorshift state.

    internal::TaskNode* AllocNode();
  };

  void WorkerLoop(int self);
  /// Randomized victim sweep; nullptr when nothing was stealable.
  internal::TaskNode* TrySteal(int self);
  void RunTask(internal::TaskNode* node, int self);
  void ResetArenas();

  std::vector<std::unique_ptr<Executor>> executors_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< Workers sleep here when starved.
  std::condition_variable idle_cv_;  ///< The coordinator sleeps here in Wait.
  /// Workers parked on work_cv_. Written under mu_; read lock-free on the
  /// submit fast path (atomic so the racy read is defined — a stale value is
  /// fine either way: the sleeper's predicate re-check under mu_ sees the
  /// already-incremented unclaimed_ count, so a missed wake cannot strand a
  /// task, and a spurious lock+notify is merely slow).
  std::atomic<int> sleepers_{0};
  /// Coordinator parked on idle_cv_ in Wait. Same discipline as sleepers_.
  std::atomic<bool> coordinator_waiting_{false};

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> pending_{0};    ///< Accepted, not yet finished.
  std::atomic<int64_t> unclaimed_{0};  ///< Accepted, not yet popped/stolen.

  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
};

}  // namespace gstream

#endif  // GSTREAM_COMMON_TASK_SCHEDULER_H_
