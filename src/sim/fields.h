// Field lists: the one description of a config struct's data members, read by
// everything that must see every field (ConfigFingerprint and its
// completeness test).
//
// A struct T lists its members beside its declaration, in declaration order,
// as a function found by argument-dependent lookup:
//
//   constexpr auto Fields(const T*) { return std::tuple{&T::a, &T::b}; }
//   static_assert(ListsEveryField<T>());
//
// The assert lays the listed member types out in order, as the compiler lays
// out T, and compares the size with sizeof(T).  A member added to T without
// being listed changes sizeof(T), so the build breaks until it is listed;
// only a member small enough to fit in T's padding (a bool after a bool)
// slips past.
//
// A field is a scalar, a std::string, a std::optional or std::vector of
// fields, or a struct with its own field list.

#ifndef SRC_SIM_FIELDS_H_
#define SRC_SIM_FIELDS_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace dcs {

template <typename T>
concept OptionalField = std::same_as<T, std::optional<typename T::value_type>>;

template <typename T>
concept VectorField = std::same_as<T, std::vector<typename T::value_type>>;

// sizeof a struct whose data members have the types Ts..., in this order.
template <typename... Ts>
constexpr std::size_t LaidOutSize() {
  std::size_t size = 0;
  std::size_t align = 1;
  ((size = (size + alignof(Ts) - 1) / alignof(Ts) * alignof(Ts) + sizeof(Ts),
    align = std::max(align, alignof(Ts))),
   ...);
  return (size + align - 1) / align * align;
}

template <typename T>
constexpr bool ListsEveryField() {
  return std::apply(
             [](auto... member) {
               return LaidOutSize<
                   std::remove_reference_t<decltype(std::declval<T&>().*member)>...>();
             },
             Fields(static_cast<const T*>(nullptr))) == sizeof(T);
}

}  // namespace dcs

#endif  // SRC_SIM_FIELDS_H_
