#include "cico/sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <system_error>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define CICO_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CICO_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CICO_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CICO_TSAN_FIBERS 1
#endif
#endif

#ifdef CICO_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef CICO_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#ifdef CICO_FIBER_ASM
// void cico_fiber_switch(void** save_sp, void* load_sp, void* arg)
//
// Pushes the System V callee-saved registers and the SSE/x87 control words
// onto the current stack, stores the stack pointer to *save_sp, switches to
// load_sp and pops the same frame from there.  `arg` is handed over in rdi,
// so the first switch into a fresh stack "returns" into Fiber::start(arg).
extern "C" void cico_fiber_switch(void** save_sp, void* load_sp, void* arg);
asm(R"(
  .pushsection .text
  .globl cico_fiber_switch
  .type cico_fiber_switch, @function
  .p2align 4
cico_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  movq %rdx, %rdi
  ret
  .size cico_fiber_switch, .-cico_fiber_switch
  .popsection
)");
#endif

namespace cico::sim {
namespace {

// Reserved like a default host thread stack (8 MiB); MAP_NORESERVE means
// only touched pages are ever committed.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
// Idle stacks one host thread keeps for its next fibers: enough for a
// Machine of this many nodes to start without a system call.
constexpr std::size_t kPooledStacks = 16;

std::size_t guard_bytes() {
  static const std::size_t p = [] {
    const long b = ::sysconf(_SC_PAGESIZE);
    return b > 0 ? static_cast<std::size_t>(b) : std::size_t{4096};
  }();
  return p;
}

/// This host thread's idle stacks (guard page + stack mappings), reused
/// last in, first out.  A thread's fibers never run on another thread, so
/// the pool needs no lock; it unmaps what it holds when the thread exits.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (void* m : idle_) ::munmap(m, guard_bytes() + kStackBytes);
  }

  /// An idle stack, or a fresh mapping whose lowest page is the guard.
  void* take() {
    if (!idle_.empty()) {
      void* m = idle_.back();
      idle_.pop_back();
      return m;
    }
    const std::size_t guard = guard_bytes();
    void* m = ::mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (m == MAP_FAILED) {
      throw std::system_error(errno, std::generic_category(), "fiber stack");
    }
    // Stacks grow down: an overflow runs into the guard page and faults
    // instead of silently corrupting the neighbouring mapping.
    if (::mprotect(m, guard, PROT_NONE) != 0) {
      const int err = errno;
      ::munmap(m, guard + kStackBytes);
      throw std::system_error(err, std::generic_category(), "fiber guard page");
    }
    return m;
  }

  [[nodiscard]] std::size_t idle() const { return idle_.size(); }

  void give(void* m) {
    if (idle_.size() < kPooledStacks) {
      idle_.push_back(m);
    } else {
      ::munmap(m, guard_bytes() + kStackBytes);
    }
  }

 private:
  std::vector<void*> idle_;
};

StackPool& stack_pool() {
  thread_local StackPool pool;
  return pool;
}

// ASan must be told before every switch which stack execution moves to, and
// after it which one it came from; `fake` keeps the leaving side's fake
// stack (use-after-return detection) alive until that side is resumed.
void before_switch(void** fake, const void* to_stack, std::size_t to_bytes) {
#ifdef CICO_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake, to_stack, to_bytes);
#else
  (void)fake;
  (void)to_stack;
  (void)to_bytes;
#endif
}

void after_switch(void* fake, const void** from_stack,
                  std::size_t* from_bytes) {
#ifdef CICO_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake, from_stack, from_bytes);
#else
  (void)fake;
  (void)from_stack;
  (void)from_bytes;
#endif
}

}  // namespace

Fiber::Fiber(std::function<void()> entry)
    : entry_(std::move(entry)), map_(stack_pool().take()) {
  stack_lo_ = static_cast<char*>(map_) + guard_bytes();
#ifdef CICO_ASAN_FIBERS
  // A pooled stack still carries the poisoned frames of the fiber that
  // used it last.
  __asan_unpoison_memory_region(stack_lo_, kStackBytes);
#endif
#ifdef CICO_FIBER_ASM
  // The frame cico_fiber_switch pops on the first resume: control words,
  // six zeroed registers, then the "return" into start() placed so that
  // start() sees the stack alignment of an ordinary call.
  auto* top = reinterpret_cast<std::uintptr_t*>(stack_lo_ + kStackBytes);
  top -= 2;    // 16 bytes of headroom; `top` stays 16-byte aligned
  *--top = 0;  // start()'s own return address: none, it never returns
  *--top = reinterpret_cast<std::uintptr_t>(&Fiber::start);  // for `ret`
  for (int i = 0; i < 6; ++i) *--top = 0;  // rbp rbx r12 r13 r14 r15
  --top;
  const std::uint32_t mxcsr = 0x1f80;      // power-on defaults
  const std::uint16_t fpucw = 0x037f;
  std::memcpy(top, &mxcsr, sizeof mxcsr);
  std::memcpy(reinterpret_cast<char*>(top) + 4, &fpucw, sizeof fpucw);
  sp_ = top;
#else
  if (::getcontext(&self_) != 0) {
    const int err = errno;
    stack_pool().give(map_);
    throw std::system_error(err, std::generic_category(), "getcontext");
  }
  self_.uc_stack.ss_sp = stack_lo_;
  self_.uc_stack.ss_size = kStackBytes;
  self_.uc_link = nullptr;  // start() never returns
  const auto p =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  makecontext(&self_, reinterpret_cast<void (*)()>(&Fiber::ucontext_entry), 2,
              static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffU));
#endif
#ifdef CICO_TSAN_FIBERS
  tsan_self_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef CICO_TSAN_FIBERS
  if (tsan_self_ != nullptr) __tsan_destroy_fiber(tsan_self_);
#endif
  // An unfinished fiber's stack still holds the frames it leaks; only a
  // finished one is clean to run another fiber on.
  if (finished_) {
    stack_pool().give(map_);
  } else {
    ::munmap(map_, guard_bytes() + kStackBytes);
  }
}

std::size_t Fiber::idle_stacks() { return stack_pool().idle(); }

void Fiber::resume() {
  void* fake = nullptr;
#ifdef CICO_TSAN_FIBERS
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_self_, 0);
#endif
  before_switch(&fake, stack_lo_, kStackBytes);
#ifdef CICO_FIBER_ASM
  cico_fiber_switch(&caller_sp_, sp_, this);
#else
  ::swapcontext(&caller_, &self_);
#endif
  after_switch(fake, nullptr, nullptr);
}

void Fiber::switch_to_caller(void** fake) {
#ifdef CICO_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
  before_switch(fake, caller_stack_, caller_stack_bytes_);
#ifdef CICO_FIBER_ASM
  cico_fiber_switch(&sp_, caller_sp_, nullptr);
#else
  ::swapcontext(&self_, &caller_);
#endif
}

void Fiber::yield() {
  void* fake = nullptr;
  switch_to_caller(&fake);
  after_switch(fake, &caller_stack_, &caller_stack_bytes_);
}

void Fiber::start(Fiber* f) {
  after_switch(nullptr, &f->caller_stack_, &f->caller_stack_bytes_);
  [f]() noexcept { f->entry_(); }();
  f->finished_ = true;
  // Leave for good: the null fake-stack slot tells ASan to free this
  // fiber's fake stack, and nothing ever switches back here.
  f->switch_to_caller(nullptr);
}

#ifndef CICO_FIBER_ASM
void Fiber::ucontext_entry(unsigned hi, unsigned lo) {
  start(reinterpret_cast<Fiber*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo)));
}
#endif

}  // namespace cico::sim
