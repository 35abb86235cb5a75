// aligned.hpp — cache-line-aligned 64-bit word storage.
//
// The compiled-tape kernels (sim/kernels_impl.hpp) read and write node
// value blocks with 256/512-bit vector loads.  std::vector<std::uint64_t>
// only guarantees 8/16-byte alignment, so a 512-bit access of a block that
// straddles a cache line is split into two line transactions — measurable
// on the streaming replay loop, and exactly the failure the unaligned
// load/store intrinsics hide.  AlignedWords is the value-array container
// the simulation scratch uses instead: every allocation starts on a
// 64-byte boundary and is padded to a whole number of cache lines, so a
// vector access of any in-range block touches the minimum number of lines
// and never faults past the allocation.
//
// Alignment here is a performance property, not a correctness one: the
// kernels use unaligned intrinsics throughout, so a plain Frame
// (std::vector) stays a valid value array for the block == 1 paths.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

namespace lps::core {

/// std::vector<std::uint64_t> replacement whose data() is 64-byte aligned.
/// Deliberately minimal: the simulation scratch and cached traces need only
/// assign / resize / indexing / copies.  Grows like a vector (capacity
/// doubling) so repeated same-size assign() calls allocate exactly once.
class AlignedWords {
 public:
  static constexpr std::size_t kAlign = 64;  // cache line / AVX-512 vector

  AlignedWords() = default;
  explicit AlignedWords(std::size_t n, std::uint64_t v = 0) { assign(n, v); }
  ~AlignedWords() { std::free(data_); }

  AlignedWords(AlignedWords&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  AlignedWords& operator=(AlignedWords&& o) noexcept {
    if (this != &o) {
      std::free(data_);
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      cap_ = std::exchange(o.cap_, 0);
    }
    return *this;
  }
  AlignedWords(const AlignedWords& o) { *this = o; }
  AlignedWords& operator=(const AlignedWords& o) {
    if (this != &o) {
      reserve(o.size_);
      size_ = o.size_;
      std::copy(o.begin(), o.end(), data_);
    }
    return *this;
  }

  std::uint64_t* data() { return data_; }
  const std::uint64_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::uint64_t& operator[](std::size_t i) { return data_[i]; }
  const std::uint64_t& operator[](std::size_t i) const { return data_[i]; }

  std::uint64_t* begin() { return data_; }
  std::uint64_t* end() { return data_ + size_; }
  const std::uint64_t* begin() const { return data_; }
  const std::uint64_t* end() const { return data_ + size_; }

  /// Resize to `n` words, all set to `v` (vector::assign semantics).
  void assign(std::size_t n, std::uint64_t v) {
    reserve(n);
    size_ = n;
    std::fill(data_, data_ + n, v);
  }

  /// Resize to `n` words; new words (if growing) are zero, surviving words
  /// keep their values.
  void resize(std::size_t n) {
    std::size_t old = size_;
    reserve(n);
    size_ = n;
    if (n > old) std::fill(data_ + old, data_ + n, 0);
  }

  /// Ensure capacity for `n` words without changing size.
  void reserve(std::size_t n) {
    if (n <= cap_) return;
    std::size_t cap = std::max(n, cap_ * 2);
    // aligned_alloc requires the byte size to be a multiple of the
    // alignment; round up to whole cache lines (this is also what keeps a
    // full-width vector access of the last block inside the allocation).
    std::size_t bytes = (cap * sizeof(std::uint64_t) + kAlign - 1) &
                        ~(kAlign - 1);
    auto* p = static_cast<std::uint64_t*>(std::aligned_alloc(kAlign, bytes));
    if (p == nullptr) throw std::bad_alloc();
    if (size_ != 0) std::copy(data_, data_ + size_, p);
    std::free(data_);
    data_ = p;
    cap_ = bytes / sizeof(std::uint64_t);
  }

 private:
  std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace lps::core
