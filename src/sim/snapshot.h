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
// Contract (locked by tests/exp/fleet_snapshot_test.cc): for every governor
// spec and fault plan, run-to-completion is bitwise identical to
// snapshot-at-T → restore → continue.  Two rules make that hold:
//
//   * Quiescent save points only.  Callers snapshot immediately after
//     Simulator::RunUntil(T), when every event with at <= T has fired.  Each
//     still-pending event sits in a timer slot of exactly one component: the
//     kernel's tick, dispatch and completion, a task's wake, the brownout
//     settle and the invariant sweep.  The owner's image holds each armed
//     slot's absolute fire time plus its sequence number, both read off the
//     simulator at save time (Simulator::TimerAt, TimerSeq).
//   * Re-arm at the saved (time, seq).  A device image starts with the
//     clock, and loading it (Simulator::RestoreClock) clears every slot the
//     previous occupant left armed.  Each owner's Timer then puts its saved
//     events straight back into their slots under their saved sequence
//     numbers (Simulator::RearmTimer), and the simulator raises its counter
//     past them.  The (time, seq) order is therefore the uninterrupted run's:
//     re-armed events keep their FIFO tie-break order, and every event
//     armed after the restore point sorts behind them.  A save taken right
//     after a load writes the image that was loaded.
//
// One description per component: each writes its image down once, as a
// Snapshot(SnapshotIo&) body that both saves and loads (SnapshotIo below),
// so there is no second, mirrored codec to keep in step.  The layout is
// pinned by tests/exp/snapshot_image_test.cc.
//
// Buffers are reusable: Clear() keeps capacity, so a warmed worker saves and
// loads device images with zero heap allocations, and a warmed fleet device
// cycle (restore, fork, run the tail) allocates nothing either (both
// enforced by the hotpath alloc-count suite, for every fleet_clone governor
// and app).  Images are process-local artifacts, serialized in
// native byte order.  The sweep journal (src/exp/journal.h) describes its
// frames and results with the same SnapshotIo.

#ifndef SRC_SIM_SNAPSHOT_H_
#define SRC_SIM_SNAPSHOT_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
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
  std::size_t remaining() const { return size_ - pos_; }

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

// One description of a component's image, read in both directions.
//
// A component writes its image down once, as a Snapshot(SnapshotIo&) body
// that names its fields in wire order.  The same body saves (the io wraps a
// SnapshotWriter) and loads (it wraps a SnapshotReader), so the two sides
// cannot drift apart.  The verbs carry the load-side checks:
//
//   io(a, b, c)         fields at their natural width: bool as U8, SimTime as
//                       I64 nanoseconds, std::string as U32 length + bytes,
//                       a fixed-size array as its elements in order;
//   io.As<Wire>(x)      a field stored at another width (an int as I64);
//   io.Tag(t)           a section marker;
//   io.Enum(e, last)    an enum saved as U8 whose values run 0..last;
//   io.Index(i, limit)  a position or count saved as U64 that may be at
//                       most `limit` (so never negative);
//   io.Expect(n)        structure the live stack fixes (a task count, a pid,
//                       whether a battery is fitted): the image must hold
//                       the same value;
//   io.Window(c, bound) a container: count, then its elements.  A count
//                       above `bound`, or more than the rest of the image
//                       could hold, fails the load before anything is sized;
//   io.Keyed(map)       a map whose key set the live stack fixes, entry by
//                       entry, each checked by its name's hash;
//   io.Optional<Wire>(o) a presence flag, then the value;
//   io.Timer<&C::Handler>(slot, owner, aux)
//                       a timer slot that calls owner->Handler (with `aux`):
//                       the armed flag, then the fire time and sequence
//                       number the simulator holds; on load it is re-armed
//                       at that time and sequence (Simulator::RearmTimer),
//                       or left clear, as Simulator::RestoreClock left it.
//                       No body arms an event any other way.
//
// Every load-side failure latches the reader's ok() false and leaves a
// value that is safe to use.  A fleet worker saves once per warmup image and
// loads once per device, so the save branches are marked unlikely: that
// keeps each body's load path in one straight run of code.  Bodies take the
// component non-const: a save never writes to it, so the const
// SaveState-style entry points may call them through const_cast.
class SnapshotIo {
 public:
  static constexpr std::size_t kNoBound = ~std::size_t{0};
  // Timer rejects a saved sequence number at or above this.
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 63;

  // `sim` is where timer slots are read from (save) and re-armed in (load).
  // A save that meets a timer slot needs one; an io without one fails any
  // load that meets an armed slot.
  explicit SnapshotIo(SnapshotWriter* w, Simulator* sim = nullptr) : w_(w), sim_(sim) {}
  explicit SnapshotIo(SnapshotReader* r, Simulator* sim = nullptr) : r_(r), sim_(sim) {}

  bool saving() const { return w_ != nullptr; }
  bool loading() const { return r_ != nullptr; }
  // False once a load has failed; a save never fails.
  bool ok() const { return r_ == nullptr || r_->ok(); }
  SnapshotWriter* writer() const { return w_; }
  SnapshotReader* reader() const { return r_; }

  // A load-side check: fails the load unless `cond` holds, and returns
  // `cond`.  Always true on save.
  bool Check(bool cond) {
    if (r_ == nullptr) {
      return true;
    }
    if (!cond) {
      r_->Fail();
    }
    return cond;
  }

  template <typename... T>
  void operator()(T&... fields) {
    (Field(fields), ...);
  }

  template <typename Wire, typename T>
  void As(T& field) {
    Wire v = static_cast<Wire>(field);
    Field(v);
    if (r_ != nullptr) {
      field = static_cast<T>(v);
    }
  }

  void Tag(std::uint32_t tag) {
    if (w_ != nullptr) [[unlikely]] {
      w_->Tag(tag);
    } else {
      r_->Tag(tag);
    }
  }

  template <typename E>
  void Enum(E& e, E last) {
    if (w_ != nullptr) [[unlikely]] {
      w_->U8(static_cast<std::uint8_t>(e));
    } else {
      e = r_->Enum(last);
    }
  }

  template <typename T>
  void Index(T& i, std::size_t limit) {
    if (w_ != nullptr) [[unlikely]] {
      w_->U64(static_cast<std::uint64_t>(i));
    } else {
      i = static_cast<T>(r_->Index(limit));
    }
  }

  // Saves `n`; on load fails unless the image holds `n`.  Returns ok(), so
  // a body can stop at the first mismatch.
  template <typename Wire>
  bool Expect(Wire n) {
    Wire v = n;
    Field(v);
    Check(v == n);
    return ok();
  }

  // Raw bytes (a count the body has already described).
  void Bytes(void* p, std::size_t n) {
    if (n == 0) {
      return;
    }
    if (w_ != nullptr) [[unlikely]] {
      w_->Bytes(p, n);
    } else {
      r_->Bytes(p, n);
    }
  }

  // A container's element count, saved as `Count` (U64 unless the format
  // says otherwise), when each element takes at least `min_bytes` of the
  // image.  On load a count above `bound` or beyond the remaining bytes
  // fails, sets `n` to 0 and returns false.
  template <typename CountT = std::uint64_t>
  bool Count(std::size_t& n, std::size_t bound, std::size_t min_bytes) {
    CountT v = static_cast<CountT>(n);
    Field(v);
    if (r_ == nullptr) {
      return true;
    }
    n = 0;
    // v * min_bytes > remaining, without a division or an overflow.
    std::uint64_t bytes = 0;
    if (static_cast<std::uint64_t>(v) > bound ||
        __builtin_mul_overflow(static_cast<std::uint64_t>(v), min_bytes, &bytes) ||
        bytes > r_->remaining()) {
      r_->Fail();
      return false;
    }
    n = static_cast<std::size_t>(v);
    return true;
  }

  // A container of trivially copyable elements: U64 count, then the
  // elements' bytes.  Contiguous containers copy in one block and restore
  // in place (resizing within their capacity); others (Ring) are cleared
  // and refilled.
  template <typename CountT = std::uint64_t, typename C>
  void Window(C& c, std::size_t bound = kNoBound) {
    using T = std::remove_cvref_t<decltype(c[0])>;
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (requires { c.data(); c.resize(0); }) {
      std::size_t n = c.size();
      Count<CountT>(n, bound, sizeof(T));
      if (r_ != nullptr) {
        c.resize(n);
      }
      Bytes(c.data(), n * sizeof(T));
    } else {
      Window<CountT>(c, bound, sizeof(T), [this](T& e) { Raw(e); });
    }
  }

  // A container whose elements `element` describes, each taking at least
  // `min_bytes` of the image.
  template <typename CountT = std::uint64_t, typename C, typename F>
  void Window(C& c, std::size_t bound, std::size_t min_bytes, F&& element) {
    std::size_t n = c.size();
    Count<CountT>(n, bound, min_bytes);
    if (w_ != nullptr) [[unlikely]] {
      for (std::size_t i = 0; i < n; ++i) {
        element(c[i]);
      }
      return;
    }
    c.clear();
    for (std::size_t i = 0; i < n && r_->ok(); ++i) {
      std::remove_cvref_t<decltype(c[0])> e{};
      element(e);
      c.push_back(std::move(e));
    }
  }

  // A map whose key set the live stack fixes, described by position: the
  // entry count, then each entry's name hash and its value's Snapshot.  The
  // strings themselves are never stored or allocated; a load onto a map
  // with another key set fails.  Returns ok().
  template <typename Map>
  bool Keyed(Map& map) {
    if (!Expect<std::uint64_t>(map.size())) {
      return false;
    }
    for (auto& [name, value] : map) {
      if (!Expect(SnapshotNameHash(name))) {
        return false;
      }
      value.Snapshot(*this);
    }
    return ok();
  }

  // An optional field: a presence flag, then the value (a default one when
  // absent, so the layout is fixed).
  template <typename Wire, typename T>
  void Optional(std::optional<T>& o) {
    bool present = o.has_value();
    Wire v = static_cast<Wire>(o.value_or(T{}));
    (*this)(present, v);
    if (r_ != nullptr) {
      o = present ? std::optional<T>(static_cast<T>(v)) : std::nullopt;
    }
  }

  // A timer slot that calls owner->Handler (see the class comment).
  template <auto Handler, typename C>
  void Timer(std::size_t slot, C* owner, std::int64_t aux = 0) {
    const bool armed = w_ != nullptr && sim_->TimerArmed(slot);
    SimTime at;
    std::uint64_t seq = 0;
    if (armed) [[unlikely]] {
      at = sim_->TimerAt(slot);
      seq = sim_->TimerSeq(slot);
    }
    if (EventRecord(armed, at, seq)) {
      sim_->RearmTimer(slot, at, seq, EventFn::Of<Handler>(owner, aux));
    }
  }

 private:
  template <typename T>
  void Field(T& v) {
    if constexpr (std::is_array_v<T> || requires { std::tuple_size<T>::value; v.data(); }) {
      using E = std::remove_cvref_t<decltype(v[0])>;
      if constexpr (std::is_same_v<E, bool>) {
        for (bool& e : v) {
          Field(e);
        }
      } else {
        // Numbers and SimTimes are stored as themselves, so an array of
        // them is one block.
        static_assert(std::is_arithmetic_v<E> || std::is_same_v<E, SimTime>);
        Bytes(&v[0], sizeof(v));
      }
    } else if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = v ? 1 : 0;
      Raw(b);
      if (r_ != nullptr) {
        v = b != 0;
      }
    } else if constexpr (std::is_same_v<T, SimTime>) {
      std::int64_t ns = v.nanos();
      Raw(ns);
      if (r_ != nullptr) {
        v = SimTime::Nanos(ns);
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (w_ != nullptr) [[unlikely]] {
        w_->Str(v);
      } else {
        v = r_->Str();
      }
    } else {
      static_assert(std::is_same_v<T, std::uint8_t> || std::is_same_v<T, std::uint32_t> ||
                        std::is_same_v<T, std::uint64_t> || std::is_same_v<T, std::int64_t> ||
                        std::is_same_v<T, double>,
                    "a field without a fixed wire width: describe it with As<Wire>");
      Raw(v);
    }
  }

  // The wire record of a timer slot: the armed flag, then its fire time and
  // sequence number when armed.  Returns true on a load that is to re-arm
  // it.  No run reaches 2^63 events, and a seq below that cannot wrap the
  // simulator's counter.
  bool EventRecord(bool armed, SimTime& at, std::uint64_t& seq) {
    Field(armed);
    if (!armed) {
      return false;
    }
    (*this)(at, seq);
    return r_ != nullptr && Check(sim_ != nullptr && seq < kSeqLimit) && r_->ok();
  }

  // The value's bytes; a failed load leaves a zero.
  template <typename T>
  void Raw(T& v) {
    if (w_ != nullptr) [[unlikely]] {
      w_->Bytes(&v, sizeof(v));
      return;
    }
    T loaded{};
    r_->Bytes(&loaded, sizeof(loaded));
    v = loaded;
  }

  SnapshotWriter* w_ = nullptr;
  SnapshotReader* r_ = nullptr;
  Simulator* sim_ = nullptr;
};

// Entry points that run a component's one description.
template <typename T>
void SaveSnapshot(const T& component, SnapshotWriter* w) {
  SnapshotIo io(w);
  const_cast<T&>(component).Snapshot(io);
}
template <typename T>
void LoadSnapshot(T& component, SnapshotReader* r) {
  SnapshotIo io(r);
  component.Snapshot(io);
}

}  // namespace dcs

#endif  // SRC_SIM_SNAPSHOT_H_
