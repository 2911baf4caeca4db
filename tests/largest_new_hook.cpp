// Largest-request operator-new hook for test_policy (the test_alloc counting
// idiom): pins that a forged length in checkpoint input never sizes an
// allocation larger than the input itself.  The full replacement set keeps
// every new/delete pair on malloc/free.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

std::atomic<std::size_t> g_largest_new{0};

// A plain load/store maximum: the assertions read it on a single thread.
void* operator new(std::size_t size) {
  if (size > g_largest_new.load(std::memory_order_relaxed)) {
    g_largest_new.store(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, std::max(static_cast<std::size_t>(align), sizeof(void*)), size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
