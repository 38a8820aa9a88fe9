// Cache-line-aligned storage for the neuron-major batches.
//
// The batched kernels sweep rows of one block of 32 samples: 128 bytes, two
// cache lines when the row starts on a line. Rows of a buffer that is only
// malloc-aligned (16 bytes) straddle three lines each, and every vector
// load at the line break splits; on the lab convnet's forward pass that
// cost about 7%. FeatureBatch (and with it BoxBatch) and the forward
// scratch therefore allocate through CacheLineAllocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

namespace ranm {

inline constexpr std::size_t kCacheLine = 64;

/// std::allocator with every allocation aligned to a cache line. It
/// over-allocates with malloc and keeps malloc's pointer in the word
/// before the aligned block: glibc's aligned operator new (memalign) cost
/// about 45 ns more per allocation, which a batch-1 query, allocating a
/// few small batches, would pay on every call.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  explicit CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - kCacheLine) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    void* raw = std::malloc(n * sizeof(T) + kCacheLine);
    if (raw == nullptr) throw std::bad_alloc();
    // malloc aligns to at least 16 bytes, so the aligned block starts
    // 16 to 64 bytes in, leaving room for the pointer before it.
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(raw) + kCacheLine) &
        ~std::uintptr_t{kCacheLine - 1};
    void** block = reinterpret_cast<void**>(aligned);
    block[-1] = raw;
    return reinterpret_cast<T*>(block);
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    std::free(reinterpret_cast<void**>(p)[-1]);
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) noexcept {
    return true;
  }
};

/// A vector of floats whose first element starts a cache line.
using AlignedFloats = std::vector<float, CacheLineAllocator<float>>;

}  // namespace ranm
