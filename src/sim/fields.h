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
// The assert checks two things, so that a member added to T without being
// listed breaks the build until it is listed:
//   * the list is as long as T's member count, which a brace-init probe
//     reads off the aggregate (the most AnyField initialisers T{...} takes),
//     so an unlisted member hidden in T's padding (a bool after a bool) is
//     caught;
//   * the listed member types, laid out in order as the compiler lays out T,
//     fill sizeof(T), so a list naming the wrong member is caught too.
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

// Converts to any member type, so T{AnyField{}, ...} initialises one member
// per initialiser.  Declared only: it is named in unevaluated probes.
struct AnyField {
  template <typename U>
  operator U() const;  // NOLINT(google-explicit-constructor)
};

// The number of members of the aggregate T: the most initialisers T{...}
// accepts.
template <typename T, std::size_t N = 0>
constexpr std::size_t MemberCount() {
  constexpr bool takes_one_more = []<std::size_t... I>(std::index_sequence<I...>) {
    return requires { T{(static_cast<void>(I), AnyField{})...}; };
  }(std::make_index_sequence<N + 1>{});
  if constexpr (takes_one_more) {
    return MemberCount<T, N + 1>();
  } else {
    return N;
  }
}

template <typename T>
constexpr bool ListsEveryField() {
  constexpr auto fields = Fields(static_cast<const T*>(nullptr));
  return std::tuple_size_v<decltype(fields)> == MemberCount<T>() &&
         std::apply(
             [](auto... member) {
               return LaidOutSize<
                   std::remove_reference_t<decltype(std::declval<T&>().*member)>...>();
             },
             fields) == sizeof(T);
}

}  // namespace dcs

#endif  // SRC_SIM_FIELDS_H_
