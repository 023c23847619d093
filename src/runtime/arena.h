// Per-worker bump-pointer scratch arenas.
//
// The trace-replay kernel (power/replay.cpp) needs short-lived column
// buffers for every hierarchical call it expands -- one set per nesting
// level, thousands of times per synthesis pass. A
// general-purpose allocator would serialize the workers on its locks and
// fragment; instead every thread owns one Arena and allocates by bumping
// an offset into geometrically grown blocks.
//
// Usage is strictly stack-shaped: open a Frame, allocate freely, and the
// Frame's destructor returns the arena to its state at construction.
// Blocks are kept across frames, so steady-state replay performs zero
// heap allocations. Frames nest (one per hierarchy level).
//
// Arenas are thread-local and never shared, so no synchronization is
// needed on the allocation path; only the process-wide high-water
// statistic (surfaced as the `replay.arena_bytes` gauge) is atomic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace hsyn::runtime {

class Arena {
 public:
  /// The calling thread's arena (created on first use).
  static Arena& local();

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// RAII mark/release: destruction frees everything allocated since
  /// construction (blocks stay reserved for reuse).
  class Frame {
   public:
    explicit Frame(Arena& a) : a_(a), block_(a.cur_block_), off_(a.cur_off_) {}
    ~Frame() {
      a_.cur_block_ = block_;
      a_.cur_off_ = off_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Arena& a_;
    std::size_t block_;
    std::size_t off_;
  };

  /// `n` uninitialized 32-bit values.
  std::int32_t* alloc_i32(std::size_t n) {
    return static_cast<std::int32_t*>(alloc(n * sizeof(std::int32_t)));
  }

  /// `n` uninitialized pointer slots.
  template <typename T>
  T** alloc_ptrs(std::size_t n) {
    return static_cast<T**>(alloc(n * sizeof(T*)));
  }

  /// Uninitialized storage; bumps advance in 64-byte strides so separate
  /// allocations never share a cache line.
  void* alloc(std::size_t bytes);

  /// Bytes currently reserved by this thread's arena blocks.
  [[nodiscard]] std::size_t reserved() const;

  /// Sum of `reserved()` over every arena ever created in the process
  /// (monotone; arenas live for their thread's lifetime).
  static std::uint64_t total_reserved();

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t min_bytes);

  std::vector<Block> blocks_;
  std::size_t cur_block_ = 0;  ///< index of the block being bumped
  std::size_t cur_off_ = 0;    ///< bump offset within blocks_[cur_block_]
};

}  // namespace hsyn::runtime
