// Counter lists. Each stats struct declares its counters once, as
// members, and lists them once, next to the members, in a static
// `for_each_counter(v, s...)` that calls v(CounterInfo{name, merge,
// class}, s.member...) per counter: over one struct to read or write it,
// over two to merge them. A derived struct's list starts with its
// base's. Merging per-PPE and per-process parts, the dist `bye` frame,
// the daemon's replies, the suite reports and the CLI loop over these
// lists, so a new counter is its member, its row, and the line that
// produces it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "util/jsonl.hpp"

namespace optsched::util {

/// How the counters of two concurrent parts of one solve (PPE threads,
/// worker processes) combine: added, or the larger kept. A flag always
/// keeps the larger, and the per-PPE distribution concatenates.
enum class Merge : std::uint8_t { kSum, kMax };

/// Semantic counters are a pure function of the instance and engine for
/// serial engines; run-dependent ones (wall-clock, serving-layer state,
/// dist wire traffic) differ between reruns, so determinism diffs strip
/// them.
enum class CounterClass : std::uint8_t { kSemantic, kRunDependent };

struct CounterInfo {
  const char* name;
  Merge merge;
  CounterClass cls = CounterClass::kSemantic;
};

/// Short names for writing list rows: v(C{"expanded", kSum}, s.expanded...).
namespace counter_rows {
using C = CounterInfo;
inline constexpr Merge kSum = Merge::kSum;
inline constexpr Merge kMax = Merge::kMax;
inline constexpr CounterClass kRun = CounterClass::kRunDependent;
}  // namespace counter_rows

/// Merge `from`'s counters into `into` under each counter's rule. `into`
/// may be a struct derived from `from`'s type: exactly the counters of
/// `from`'s type are merged.
template <class S>
void merge_counters(std::type_identity_t<S>& into, const S& from) {
  S::for_each_counter(
      [](const CounterInfo& c, auto& a, const auto& b) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>)
          a.insert(a.end(), b.begin(), b.end());
        else if (c.merge == Merge::kSum && !std::is_same_v<T, bool>)
          a = static_cast<T>(a + b);
        else
          a = std::max(a, b);
      },
      into, from);
}

/// Write every counter of `s` as a member of the object `out`.
template <class S>
void counters_to_json(const S& s, Json& out) {
  S::for_each_counter(
      [&out](const CounterInfo& c, const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>)
          out[c.name] = Json::Array(v.begin(), v.end());
        else
          out[c.name] = v;
      },
      s);
}

/// Read the counters counters_to_json wrote. A missing member leaves the
/// counter as it is; a mistyped one (or an integer counter holding a
/// negative, fractional or out-of-range number) throws util::Error.
template <class S>
void counters_from_json(const Json& in, S& s) {
  const auto count = [](const Json& j, const char* name, double max) {
    const double d = j.as_number();
    OPTSCHED_REQUIRE(d >= 0 && d <= max && d == std::floor(d),
                     std::string("JSON: counter '") + name +
                         "' must be a non-negative integer in range");
    return d;
  };
  S::for_each_counter(
      [&](const CounterInfo& c, auto& v) {
        if (!in.has(c.name)) return;
        const Json& j = in.at(c.name);
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
          v.clear();
          for (const Json& e : j.as_array())
            v.push_back(static_cast<std::uint64_t>(count(e, c.name, 0x1p63)));
        } else if constexpr (std::is_same_v<T, bool>) {
          v = j.as_bool();
        } else if constexpr (std::is_same_v<T, std::string>) {
          v = j.as_string();
        } else if constexpr (std::is_floating_point_v<T>) {
          v = j.as_number();
        } else {
          // 2^63 bounds the cast for 64-bit counters; narrower ones by
          // their own maximum.
          const double max = std::min(
              0x1p63, static_cast<double>(std::numeric_limits<T>::max()));
          v = static_cast<T>(count(j, c.name, max));
        }
      },
      s);
}

}  // namespace optsched::util
