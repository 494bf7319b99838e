// Counting global operator new for alloc_test. Storage still comes from
// malloc/free, and the usable bytes of every block not yet deleted are
// tracked, so a test can see storage that outlives the call that made it.
// It lives in its own translation unit so the compiler never
// inlines these replacements into a caller, where it would read the
// malloc/free pairing as a new/delete mismatch.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocations = 0;
/// Usable bytes of every operator new block not yet deleted, all threads.
std::atomic<std::int64_t> g_live_bytes{0};

void* held(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* counted_alloc(std::size_t n) {
  if (t_counting) ++t_allocations;
  return held(std::malloc(n ? n : 1));
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  if (t_counting) ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  return held(std::aligned_alloc(a, rounded ? rounded : a));
}

}  // namespace

namespace alloc_counter {

/// Count this thread's allocations from now on.
void start() {
  t_allocations = 0;
  t_counting = true;
}

/// Stop counting; returns the allocations made since start().
std::uint64_t stop() {
  t_counting = false;
  return t_allocations;
}

/// Bytes held right now by blocks from operator new, on every thread.
std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace alloc_counter

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
