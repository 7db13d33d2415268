// Flat-buffer device-state snapshots for fleet-scale forking.
//
// A fleet worker simulates one warmup prefix per cell (governor × app ×
// config variant) and then runs thousands of devices that share it.  Instead
// of re-simulating the prefix per device, the stack serializes its complete
// post-warmup state into one contiguous, relocatable byte image
// (SnapshotWriter), and every device starts by loading that image back
// (SnapshotReader) — a straight memcpy-dominated pass over POD spans, with
// no pointer fixups because the image holds values, never addresses.
//
// Contract (locked by tests/exp/snapshot_differential_test.cc): for every
// governor spec and fault plan, run-to-completion is bitwise identical to
// snapshot-at-T → restore → continue.  Two rules make that hold:
//
//   * Quiescent save points only.  Callers snapshot immediately after
//     Simulator::RunUntil(T), when every event with at <= T has fired.  The
//     still-pending events (kernel tick, dispatch, completions, task wakes,
//     brownout settles, invariant sweeps) are each owned by exactly one
//     component, which saves the event's absolute fire time plus its
//     original queue sequence number (EventQueue::SeqOf).
//   * Order-preserving re-arm.  On load each owner registers its pending
//     events on a RearmList; FireInOrder() re-schedules them in ascending
//     original-sequence order.  Re-armed events therefore keep their FIFO
//     tie-break order relative to each other, and every event created after
//     the restore point sorts behind them — exactly as in the uninterrupted
//     run.
//
// Buffers are reusable: Clear() keeps capacity, so a warmed worker saves and
// loads device images with zero heap allocations, and a warmed fleet device
// cycle (restore, fork, run the tail) allocates nothing either (both
// enforced by the hotpath alloc-count suite, for every fleet_clone governor
// and app).  Images are process-local artifacts, serialized in
// native byte order.  The sweep journal (src/exp/journal.h) frames its
// records with the same codec.

#ifndef SRC_SIM_SNAPSHOT_H_
#define SRC_SIM_SNAPSHOT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/sim/time.h"

namespace dcs {

// FNV-1a 64 of a name, used by positional map restores (metrics registry,
// trace sink) to verify save and load walk the same key sequence without
// serializing — or allocating — the strings themselves.
inline std::uint64_t SnapshotNameHash(const std::string& name) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

class SnapshotWriter {
 public:
  // Forgets the previous image but keeps the buffer's capacity.
  void Clear() { bytes_.clear(); }

  void U8(std::uint8_t v) { Raw(&v, sizeof(v)); }
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(std::int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Time(SimTime t) { I64(t.nanos()); }
  // u32 length + bytes.
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  // Bulk POD span: count + raw bytes.  This is the fast path — power-tape
  // segments, trace points and sched-log records go through here.
  template <typename T>
  void Span(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(static_cast<std::uint64_t>(count));
    if (count > 0) {
      Raw(data, count * sizeof(T));
    }
  }

  // Raw bytes (count already written by the caller; pairs with
  // SnapshotReader::Bytes for containers restored in place after a resize).
  void Bytes(const void* p, std::size_t n) { Raw(p, n); }

  // Section marker.  The reader verifies it, so a component whose save and
  // load drift out of sync fails loudly at the section boundary instead of
  // silently misreading the rest of the image.
  void Tag(std::uint32_t tag) { U32(tag); }

  const char* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }

 private:
  void Raw(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    bytes_.insert(bytes_.end(), c, c + n);
  }
  std::vector<char> bytes_;
};

// Reader over a snapshot image.  Running past the end or failing a Tag check
// latches ok() false and returns zeroes; callers check ok() once after the
// full load instead of after every field.
class SnapshotReader {
 public:
  SnapshotReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit SnapshotReader(const SnapshotWriter& w) : SnapshotReader(w.data(), w.size()) {}

  std::uint8_t U8() {
    std::uint8_t v = 0;
    Take(&v, sizeof(v));
    return v;
  }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    Take(&v, sizeof(v));
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    Take(&v, sizeof(v));
    return v;
  }
  std::int64_t I64() {
    std::int64_t v = 0;
    Take(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0.0;
    Take(&v, sizeof(v));
    return v;
  }
  bool Bool() { return U8() != 0; }
  SimTime Time() { return SimTime::Nanos(I64()); }
  // A length beyond the remaining bytes latches ok() false before anything
  // is allocated, so a hostile length field costs nothing.
  std::string Str() {
    const std::uint32_t len = U32();
    if (!ok_ || len > size_ - pos_) {
      ok_ = false;
      return std::string();
    }
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  // Reads a container's element count (written with U64) when each element
  // takes at least `min_element_bytes` of the image.  Like Str(), a count
  // the remaining bytes cannot hold latches ok() false and returns 0, so a
  // hostile count field sizes no allocation and no loop.
  std::size_t Count(std::size_t min_element_bytes) {
    const std::uint64_t count = U64();
    if (!ok_ || count > (size_ - pos_) / min_element_bytes) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::size_t>(count);
  }

  // Reads an enum saved with U8 whose enumerators run 0..`last`.  A value
  // past `last` latches ok() false and returns the first enumerator, so no
  // out-of-range state ever reaches a switch.
  template <typename E>
  E Enum(E last) {
    const std::uint8_t v = U8();
    if (v > static_cast<std::uint8_t>(last)) {
      ok_ = false;
      return E{};
    }
    return static_cast<E>(v);
  }

  // Reads an index saved with U64 that may be at most `limit` (e.g. a
  // position in a sequence of `limit` events, where `limit` means "done").
  // A larger value latches ok() false and returns 0.
  std::size_t Index(std::size_t limit) {
    const std::uint64_t v = U64();
    if (v > limit) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::size_t>(v);
  }

  // Reads a span saved by SnapshotWriter::Span into `out` (up to `max`
  // elements).  Returns the element count, or 0 with ok() latched false when
  // the image claims more elements than `max` — the caller's storage is the
  // capacity contract, never grown here.
  template <typename T>
  std::size_t SpanInto(T* out, std::size_t max) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = U64();
    if (count > max) {
      ok_ = false;
      return 0;
    }
    if (count > 0 && !Take(out, static_cast<std::size_t>(count) * sizeof(T))) {
      return 0;
    }
    return static_cast<std::size_t>(count);
  }

  // Raw bytes into caller storage sized from a count the caller just read.
  bool Bytes(void* out, std::size_t n) { return Take(out, n); }

  void Tag(std::uint32_t expected) {
    if (U32() != expected) {
      ok_ = false;
    }
  }

  // Latches the reader failed without consuming bytes (semantic mismatches
  // a component detects itself, e.g. a registry key-set drift).
  void Fail() { ok_ = false; }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  bool Take(void* p, std::size_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return false;
    }
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Deferred re-arm of the pending events recorded in a snapshot.  Components
// Add() one entry per pending event during LoadState; the device harness
// calls FireInOrder() once, which sorts by the original sequence number and
// invokes each `fire` callback to schedule the event.  Fixed capacity — the
// full stack has at most a dozen pending events at a quiescent point — so
// re-arming never allocates.
class RearmList {
 public:
  static constexpr int kCapacity = 32;

  using FireFn = void (*)(void* ctx, SimTime at, std::int64_t aux);

  void Clear() { count_ = 0; }

  void Add(std::uint64_t seq, SimTime at, FireFn fire, void* ctx, std::int64_t aux = 0) {
    if (count_ >= kCapacity) {
      overflowed_ = true;
      return;
    }
    entries_[count_++] = Entry{seq, at, fire, ctx, aux};
  }

  // Schedules every entry in ascending original-sequence order.
  void FireInOrder() {
    // Insertion sort: the list is tiny and almost sorted (components save in
    // arm order).
    for (int i = 1; i < count_; ++i) {
      Entry e = entries_[i];
      int j = i - 1;
      while (j >= 0 && entries_[j].seq > e.seq) {
        entries_[j + 1] = entries_[j];
        --j;
      }
      entries_[j + 1] = e;
    }
    for (int i = 0; i < count_; ++i) {
      entries_[i].fire(entries_[i].ctx, entries_[i].at, entries_[i].aux);
    }
    count_ = 0;
  }

  int count() const { return count_; }
  bool overflowed() const { return overflowed_; }

 private:
  struct Entry {
    std::uint64_t seq;
    SimTime at;
    FireFn fire;
    void* ctx;
    std::int64_t aux;
  };
  Entry entries_[kCapacity];
  int count_ = 0;
  bool overflowed_ = false;
};

}  // namespace dcs

#endif  // SRC_SIM_SNAPSHOT_H_
