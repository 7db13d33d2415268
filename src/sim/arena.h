// Per-run bump allocator with scoped reset.
//
// A sweep worker runs thousands of jobs; each job builds a Simulator, an
// Itsy, a Kernel and a Daq, fills their transient buffers (simulator timer
// slots, power-tape segments, sched-log ring, DAQ sample window) and tears
// everything down again.  Under the global heap that is a malloc/free storm
// with identical shape every job.  An Arena turns the whole cycle into
// pointer bumps: the worker owns one Arena, binds it into the per-job
// stack, and calls Reset() between jobs.  Blocks are retained across
// Reset(), so after the first job warms the arena the steady state performs
// zero heap allocations (enforced by tests/hotpath/alloc_steadystate_test.cc).
//
// Ownership rules:
//   * The Arena outlives everything bound to it.  Binding is per-object and
//     explicit (constructor parameter); nothing captures an arena globally.
//   * Reset() invalidates every pointer previously handed out.  Callers
//     reset only between jobs, when all arena-backed containers are gone.
//   * Anything that escapes a job (ExperimentResult, ObsCapture copies)
//     must live on the heap.  ArenaAllocator guarantees this structurally:
//     container copies get a default (heap-mode) allocator via
//     select_on_container_copy_construction, so copying an arena-backed
//     PowerTape into a result yields a heap-backed one.

#ifndef SRC_SIM_ARENA_H_
#define SRC_SIM_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace dcs {

class Arena {
 public:
  static constexpr std::size_t kDefaultFirstBlockBytes = std::size_t{1} << 16;

  explicit Arena(std::size_t first_block_bytes = kDefaultFirstBlockBytes)
      : next_block_bytes_(first_block_bytes == 0 ? kDefaultFirstBlockBytes
                                                 : first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` of storage aligned to `align` (a power of two).  Valid
  // until the next Reset().  Never returns nullptr; allocation failure
  // throws std::bad_alloc like the global heap would.
  void* Allocate(std::size_t bytes, std::size_t align) {
    if (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const std::size_t offset = AlignedOffset(b, offset_, align);
      if (offset <= b.size && bytes <= b.size - offset) {
        offset_ = offset + bytes;
        allocated_ += bytes;
        return b.data.get() + offset;
      }
    }
    return AllocateSlow(bytes, align);
  }

  // Rewinds the bump pointer to the start; retains every block for reuse.
  // Invalidates all outstanding allocations.
  void Reset() {
    block_ = 0;
    offset_ = 0;
    allocated_ = 0;
    ++resets_;
  }

  // Stats (for tests and the perf harness).
  std::size_t blocks() const { return blocks_.size(); }
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  std::size_t allocated_bytes() const { return allocated_; }
  std::uint64_t resets() const { return resets_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  // Smallest offset >= `from` whose absolute address is `align`-aligned.
  static std::size_t AlignedOffset(const Block& b, std::size_t from,
                                   std::size_t align) {
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(b.data.get());
    const std::uintptr_t mask = static_cast<std::uintptr_t>(align) - 1;
    return static_cast<std::size_t>(((base + from + mask) & ~mask) - base);
  }

  void* AllocateSlow(std::size_t bytes, std::size_t align);

  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // index of the block being bumped
  std::size_t offset_ = 0;  // bump offset into blocks_[block_]
  std::size_t allocated_ = 0;
  std::size_t next_block_bytes_;
  std::uint64_t resets_ = 0;
};

// std-compatible allocator over an Arena.  Default-constructed instances
// (arena() == nullptr) are in *heap mode* and behave exactly like
// std::allocator — this is what container copies receive, so anything
// copied out of a run automatically lands on the heap.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept = default;  // heap mode
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) {
      ::operator delete(p);
    }
    // Arena storage is reclaimed wholesale by Arena::Reset().
  }

  Arena* arena() const { return arena_; }

  // Copies of a container must not alias a per-run arena (they typically
  // escape into results), so they fall back to heap mode.
  ArenaAllocator select_on_container_copy_construction() const {
    return ArenaAllocator();
  }
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::false_type;
  using propagate_on_container_swap = std::false_type;

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return !(a == b);
  }

 private:
  template <typename U>
  friend class ArenaAllocator;

  Arena* arena_ = nullptr;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

// An ArenaAllocator whose value-initialising construct default-initialises,
// so resize() leaves new trivial elements unwritten: for a buffer its owner
// writes whole before reading (the DAQ's sample window), which then costs no
// fill pass.
template <typename T>
class NoInitArenaAllocator : public ArenaAllocator<T> {
 public:
  using ArenaAllocator<T>::ArenaAllocator;

  NoInitArenaAllocator select_on_container_copy_construction() const {
    return NoInitArenaAllocator();
  }

  // Only the no-argument form: std::allocator_traits constructs from
  // arguments with placement new when the allocator has no matching member.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

}  // namespace dcs

#endif  // SRC_SIM_ARENA_H_
