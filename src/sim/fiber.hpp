// Stackful coroutines for blocking-style event handlers.
//
// A module handler that issues a blocking service call must wait for a
// simulator event that has not executed yet. The handler runs on a
// fiber: it suspends back to the simulator loop, and the event that
// completes its wait resumes it directly, as the last thing that event
// does. The handler therefore resumes at exactly the virtual time its
// wait was satisfied; co-tenants sharing one simulator cannot perturb
// each other's timing, because nothing pumps the simulator from inside
// a handler.
//
// Thread affinity: a fiber belongs to the simulator shard whose event
// resumes it, and on the parallel engine that shard may run on a
// different worker thread each epoch. That is safe because Enter()
// re-captures the resume point (link_ and the current-fiber TLS) on
// every entry — nothing in a suspended fiber references the thread it
// last ran on. The current-fiber pointer and the stack pool are
// thread-local so concurrent shards never share them.
#pragma once

#include <ucontext.h>

#include <functional>
#include <memory>

namespace vp::sim {

class Fiber {
 public:
  using Fn = std::function<void()>;

  /// Start `fn` on its own stack and run it until it finishes or calls
  /// Suspend(). The caller owns the fiber: delete it once finished()
  /// is true; a suspended fiber must be driven to completion with
  /// Resume() first (destroying one mid-flight would leak every object
  /// live on its stack).
  static Fiber* Spawn(Fn fn);

  /// The fiber currently executing, or nullptr on the scheduler stack.
  static Fiber* Current();

  /// Suspend the current fiber: control returns to the Spawn() or
  /// Resume() call that entered it. Must be called from inside a fiber.
  static void Suspend();

  /// Re-enter a suspended fiber until it finishes or suspends again.
  void Resume();

  bool finished() const { return finished_; }

  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

 private:
  explicit Fiber(Fn fn);
  void Enter();
  static void Trampoline();

  Fn fn_;
  bool finished_ = false;
  std::unique_ptr<char[]> stack_;
  ucontext_t ctx_;   // the fiber's saved execution state
  ucontext_t link_;  // where Suspend()/completion returns to
  Fiber* prev_current_ = nullptr;
  // ThreadSanitizer bookkeeping (null outside TSan builds): TSan must
  // be told about every stack switch or it reports phantom races
  // between frames of unrelated fibers sharing a thread.
  void* tsan_fiber_ = nullptr;
  void* tsan_return_ = nullptr;
};

}  // namespace vp::sim
