#include "sched/fiber.hpp"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

// ---- sanitizer detection ----------------------------------------------------

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MANATEE_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define MANATEE_TSAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) && !defined(MANATEE_ASAN_FIBERS)
#define MANATEE_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__) && !defined(MANATEE_TSAN_FIBERS)
#define MANATEE_TSAN_FIBERS 1
#endif

#if defined(MANATEE_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(MANATEE_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif
#if defined(MANATEE_ASAN_FIBERS) || defined(MANATEE_TSAN_FIBERS)
#include <pthread.h>
#endif

// ---- context-switch backend selection ---------------------------------------
//
// x86-64: hand-rolled assembly switch (saves the SysV callee-saved set plus
// the FP control words; ~20 instructions, no syscall). Everything else:
// POSIX ucontext (correct by construction, one sigprocmask syscall per
// switch). MANATEE_FIBER_FORCE_UCONTEXT forces the fallback for testing.

#if defined(__x86_64__) && !defined(MANATEE_FIBER_FORCE_UCONTEXT)
#define MANATEE_FIBER_ASM_X86_64 1
#else
#include <ucontext.h>
#endif

namespace manatee::sched::detail {
namespace {

[[noreturn]] void fiber_first_entry(Fiber* fiber) {
#if defined(MANATEE_ASAN_FIBERS)
  // First activation: there is no previous start_switch in this context.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  fiber_entry(fiber);
}

}  // namespace
}  // namespace manatee::sched::detail

#if defined(MANATEE_FIBER_ASM_X86_64)

// Saved frame layout (descending addresses, matching push order):
//   [sp+56] return address        [sp+40] rbx   [sp+24] r13   [sp+8]  r15
//   [sp+48] rbp                   [sp+32] r12   [sp+16] r14   [sp+0]  mxcsr:fcw
asm(R"(
.text
.align 16
.globl manatee_fiber_switch
.hidden manatee_fiber_switch
.type manatee_fiber_switch,@function
manatee_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr 0(%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr 0(%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    retq
.size manatee_fiber_switch,.-manatee_fiber_switch

.align 16
.globl manatee_fiber_trampoline
.hidden manatee_fiber_trampoline
.type manatee_fiber_trampoline,@function
manatee_fiber_trampoline:
    movq %r12, %rdi
    xorl %ebp, %ebp
    callq manatee_fiber_entry_thunk@PLT
    ud2
.size manatee_fiber_trampoline,.-manatee_fiber_trampoline
)");

extern "C" {
void manatee_fiber_switch(void** save_sp, void* resume_sp);
void manatee_fiber_trampoline();

[[noreturn]] void manatee_fiber_entry_thunk(void* fiber) {
  manatee::sched::detail::fiber_first_entry(
      static_cast<manatee::sched::Fiber*>(fiber));
}
}  // extern "C"

#endif  // MANATEE_FIBER_ASM_X86_64

namespace manatee::sched {

// ---- slab stacks ------------------------------------------------------------

namespace {

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

StackPool::~StackPool() {
  // Stacks are carved, never individually unmapped.
  for (const auto& [base, bytes] : slabs_) ::munmap(base, bytes);
}

StackAllocation StackPool::acquire() {
  if (free_.empty()) return carve();
  const StackAllocation s = free_.back();
  free_.pop_back();
  ++reused_;
  return s;
}

StackAllocation StackPool::carve() {
  const std::size_t page = page_size();
  const std::size_t usable = (kStackBytes + page - 1) / page * page;
  const std::size_t stride = usable + page;  // + gap page below

  ++mapped_;
  if (carve_left_ == 0) {
    // One VMA per kSlabStacks stacks: MAP_NORESERVE so the untouched bulk
    // (gap pages, never-reached depths) costs neither commit charge nor
    // resident pages. No per-stack mprotect — that would split the VMA and
    // put 64k-rank worlds right back over vm.max_map_count.
    constexpr std::size_t kSlabStacks = 64;
    const std::size_t slab_bytes = stride * kSlabStacks;
    void* base =
        ::mmap(nullptr, slab_bytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK | MAP_NORESERVE, -1, 0);
    MANATEE_REQUIRE(base != MAP_FAILED, "fiber stack slab mmap failed");
    slabs_.emplace_back(base, slab_bytes);
    carve_next_ = static_cast<std::byte*>(base);
    carve_left_ = kSlabStacks;
  }
  StackAllocation s;
  s.base = carve_next_;
  s.limit = carve_next_ + page;
  s.top = carve_next_ + stride;
  carve_next_ += stride;
  --carve_left_;
  return s;
}

void StackPool::release(StackAllocation stack, std::size_t high_water_bytes) {
  // The guard word is only readable once its page is committed; a stack
  // that never came within a page of its limit cannot have crossed it.
  // Checked before the decommit below, which would zero it.
  if (high_water_bytes + page_size() >= stack.usable()) {
    MANATEE_REQUIRE(detail::stack_guard_intact(stack),
                    "fiber stack overflow detected (guard word clobbered) — "
                    "raise sched::kStackBytes");
  }
  // Decommit the touched pages before pooling: otherwise the finish wave
  // re-commits every fleet stack (each fiber's last dispatch restored its
  // pages) and the job's peak RSS lands exactly there, at world-size ×
  // page. The high-water mark is page-granular
  // (FiberBackend::observe_stack_depth), so this releases whole pages.
  auto* top = static_cast<std::byte*>(stack.top);
  detail::decommit_stack_span(
      top - std::min(high_water_bytes, stack.usable()), top);
  free_.push_back(stack);
}

// ---- context switching ------------------------------------------------------

namespace detail {

void init_thread_context(ExecContext* ctx) {
  *ctx = ExecContext{};
#if defined(MANATEE_ASAN_FIBERS) || defined(MANATEE_TSAN_FIBERS)
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      ctx->stack_limit = addr;
      ctx->stack_size = size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
#if defined(MANATEE_TSAN_FIBERS)
  ctx->tsan_fiber = __tsan_get_current_fiber();
#endif
#if !defined(MANATEE_FIBER_ASM_X86_64)
  ctx->sp = std::calloc(1, sizeof(ucontext_t));
  MANATEE_REQUIRE(ctx->sp != nullptr, "ucontext allocation failed");
#endif
}

void destroy_thread_context(ExecContext* ctx) {
#if !defined(MANATEE_FIBER_ASM_X86_64)
  std::free(ctx->sp);
#endif
  ctx->sp = nullptr;
}

#if defined(MANATEE_FIBER_ASM_X86_64)

void make_fiber_context(Fiber* fiber) {
  ExecContext& ctx = fiber->ctx;
  ctx.stack_limit = fiber->stack.limit;
  ctx.stack_size = fiber->stack.usable();
  ctx.asan_fake_stack = nullptr;
#if defined(MANATEE_TSAN_FIBERS)
  ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
  // Build the initial saved frame so the restore path of
  // manatee_fiber_switch "returns" into the trampoline with r12 = fiber.
  auto top = reinterpret_cast<std::uintptr_t>(fiber->stack.top) & ~15ULL;
  auto* frame = reinterpret_cast<std::uintptr_t*>(top - 64);
  std::memset(frame, 0, 64);
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  std::memcpy(reinterpret_cast<std::byte*>(frame) + 0, &mxcsr, sizeof(mxcsr));
  std::memcpy(reinterpret_cast<std::byte*>(frame) + 4, &fcw, sizeof(fcw));
  frame[4] = reinterpret_cast<std::uintptr_t>(fiber);  // r12
  frame[7] = reinterpret_cast<std::uintptr_t>(&manatee_fiber_trampoline);
  ctx.sp = frame;
}

namespace {
void raw_switch(ExecContext* from, ExecContext* to) {
  manatee_fiber_switch(&from->sp, to->sp);
}
}  // namespace

#else  // ucontext fallback

void make_fiber_context(Fiber* fiber) {
  ExecContext& ctx = fiber->ctx;
  ctx.stack_limit = fiber->stack.limit;
  ctx.stack_size = fiber->stack.usable();
  ctx.asan_fake_stack = nullptr;
#if defined(MANATEE_TSAN_FIBERS)
  ctx.tsan_fiber = __tsan_create_fiber(0);
#endif
  auto* uc = static_cast<ucontext_t*>(std::calloc(1, sizeof(ucontext_t)));
  MANATEE_REQUIRE(uc != nullptr, "ucontext allocation failed");
  MANATEE_REQUIRE(::getcontext(uc) == 0, "getcontext failed");
  uc->uc_stack.ss_sp = ctx.stack_limit;
  uc->uc_stack.ss_size = ctx.stack_size;
  uc->uc_link = nullptr;
  // makecontext passes ints; split the pointer into two 32-bit halves.
  const auto bits = reinterpret_cast<std::uintptr_t>(fiber);
  const auto lo = static_cast<unsigned>(bits & 0xffffffffu);
  const auto hi = static_cast<unsigned>(bits >> 32);
  ::makecontext(
      uc,
      reinterpret_cast<void (*)()>(+[](unsigned a, unsigned b) {
        const auto ptr = static_cast<std::uintptr_t>(a) |
                         (static_cast<std::uintptr_t>(b) << 32);
        fiber_first_entry(reinterpret_cast<Fiber*>(ptr));
      }),
      2, lo, hi);
  ctx.sp = uc;
}

namespace {
void raw_switch(ExecContext* from, ExecContext* to) {
  MANATEE_REQUIRE(::swapcontext(static_cast<ucontext_t*>(from->sp),
                                static_cast<ucontext_t*>(to->sp)) == 0,
                  "swapcontext failed");
}
}  // namespace

#endif  // context-switch backend

void switch_context(ExecContext* from, ExecContext* to) {
#if defined(MANATEE_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&from->asan_fake_stack, to->stack_limit,
                                 to->stack_size);
#endif
#if defined(MANATEE_TSAN_FIBERS)
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  raw_switch(from, to);
  // Somebody resumed `from`: complete its side of their switch.
#if defined(MANATEE_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(from->asan_fake_stack, nullptr, nullptr);
#endif
}

void switch_context_final(ExecContext* from, ExecContext* to) {
#if defined(MANATEE_ASAN_FIBERS)
  // nullptr fake-stack save: ASan retires the dying fiber's fake stack.
  __sanitizer_start_switch_fiber(nullptr, to->stack_limit, to->stack_size);
#endif
#if defined(MANATEE_TSAN_FIBERS)
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  raw_switch(from, to);
  std::abort();  // a finished fiber must never be resumed
}

void* saved_stack_pointer(const ExecContext& ctx) noexcept {
#if defined(MANATEE_FIBER_ASM_X86_64)
  return ctx.sp;  // the real suspended stack pointer
#else
  (void)ctx;
  return nullptr;  // ucontext: sp owns a heap ucontext_t, not a stack address
#endif
}

std::size_t stack_page_bytes() noexcept { return page_size(); }

void decommit_stack_span(void* lo, void* hi) noexcept {
  auto* begin = static_cast<std::byte*>(lo);
  auto* end = static_cast<std::byte*>(hi);
  if (begin >= end) return;
  (void)::madvise(begin, static_cast<std::size_t>(end - begin), MADV_DONTNEED);
}

bool stack_guard_intact(const StackAllocation& stack) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, stack.limit, sizeof(word));
  return word == 0;
}

bool stack_vacate_supported() noexcept {
#if defined(MANATEE_ASAN_FIBERS) || defined(MANATEE_TSAN_FIBERS)
  return false;
#else
  return true;
#endif
}

void decommit_stack_spans(const StackSpan* spans, std::size_t count) noexcept {
#if defined(SYS_process_madvise) && defined(SYS_pidfd_open)
  static const int pidfd =
      static_cast<int>(::syscall(SYS_pidfd_open, ::getpid(), 0));
  if (pidfd >= 0) {
    constexpr std::size_t kChunk = 512;  // stay under IOV_MAX everywhere
    struct iovec iov[kChunk];
    bool ok = true;
    for (std::size_t done = 0; ok && done < count; done += kChunk) {
      const std::size_t n = std::min(kChunk, count - done);
      for (std::size_t i = 0; i < n; ++i) {
        iov[i].iov_base = spans[done + i].lo;
        iov[i].iov_len = static_cast<std::size_t>(
            static_cast<std::byte*>(spans[done + i].hi) -
            static_cast<std::byte*>(spans[done + i].lo));
      }
      ok = ::syscall(SYS_process_madvise, pidfd, iov, n, MADV_DONTNEED, 0) >= 0;
    }
    if (ok) return;
  }
#endif
  for (std::size_t i = 0; i < count; ++i) {
    decommit_stack_span(spans[i].lo, spans[i].hi);
  }
}

void destroy_fiber_context(Fiber* fiber) {
#if defined(MANATEE_TSAN_FIBERS)
  if (fiber->ctx.tsan_fiber != nullptr) {
    __tsan_destroy_fiber(fiber->ctx.tsan_fiber);
  }
#endif
#if !defined(MANATEE_FIBER_ASM_X86_64)
  std::free(fiber->ctx.sp);
#endif
  fiber->ctx = ExecContext{};
}

}  // namespace detail

}  // namespace manatee::sched
