// Stackful fiber: one simulated node's program, run on the host thread that
// resumes it.
//
// Each fiber owns a lazily committed mmap(MAP_NORESERVE) stack with a
// PROT_NONE guard page below it, reserved as large as a default host
// thread stack, so a run pays RSS only for the pages a node touches.
// resume() and yield() are the only switch points; both carry the
// AddressSanitizer / ThreadSanitizer fiber annotations, so sanitizer
// builds see each fiber as its own stack and its own logical thread.
//
// On x86-64 a switch is a few instructions of assembly that swap the
// callee-saved registers.  Elsewhere -- and in objects built for CET
// shadow stacks (-fcf-protection), which a plain register swap would
// desynchronize -- it is glibc swapcontext, which also pays a signal-mask
// system call per switch.
#pragma once

#include <cstddef>
#include <functional>

#if defined(__x86_64__) && !(defined(__CET__) && (__CET__ & 2))
#define CICO_FIBER_ASM 1
#else
#include <ucontext.h>
#endif

namespace cico::sim {

class Fiber {
 public:
  /// Prepares a suspended fiber that will call `entry` on its first
  /// resume().  An exception escaping `entry` terminates the program.
  /// Throws std::system_error when the stack cannot be mapped.
  explicit Fiber(std::function<void()> entry);
  /// Unmaps the stack.  A fiber destroyed before its entry returned leaks
  /// the objects still live on its stack; callers run every fiber to the end.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Caller side: runs the fiber until it yields or its entry returns.
  void resume();
  /// Fiber side: suspends and returns control to the resume() caller.
  void yield();

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  static void start(Fiber* f);
#ifndef CICO_FIBER_ASM
  /// makecontext passes int-sized arguments only: the Fiber* travels split.
  static void ucontext_entry(unsigned hi, unsigned lo);
#endif
  /// Fiber side: the switch back to the resume() caller.  `fake` receives
  /// this fiber's ASan fake stack; null means the fiber is leaving for good.
  void switch_to_caller(void** fake);

  std::function<void()> entry_;
  void* map_ = nullptr;  ///< guard page + stack
  std::size_t map_bytes_ = 0;
  char* stack_lo_ = nullptr;  ///< lowest usable stack byte
#ifdef CICO_FIBER_ASM
  void* sp_ = nullptr;         ///< this fiber's stack pointer while suspended
  void* caller_sp_ = nullptr;  ///< the resume() caller's, while running
#else
  ucontext_t self_{};
  ucontext_t caller_{};
#endif
  bool finished_ = false;

  // Sanitizer bookkeeping (unused in plain builds).
  const void* caller_stack_ = nullptr;  ///< ASan: the resume() caller's stack
  std::size_t caller_stack_bytes_ = 0;
  void* tsan_self_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace cico::sim
