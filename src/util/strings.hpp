// Small string helpers shared by the spec/corpus parsers and report
// writers. Header-only; kept out of cli.cpp so library code (workload
// scenario parsing) can use them without pulling in the flag parser.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace optsched::util {

/// Strict base-10 uint64 parse: the whole token must be digits (no sign,
/// no trailing garbage — std::stoull would silently accept "1O" as 1).
/// Throws util::Error naming `what` on anything else.
inline std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  OPTSCHED_REQUIRE(!text.empty() && ec == std::errc() && ptr == end,
                   "malformed " + std::string(what) + " '" +
                       std::string(text) + "'");
  return v;
}

/// Strip leading and trailing ASCII whitespace.
inline std::string trim(std::string_view text) {
  const auto* ws = " \t\r\n";
  const auto begin = text.find_first_not_of(ws);
  if (begin == std::string_view::npos) return {};
  const auto end = text.find_last_not_of(ws);
  return std::string(text.substr(begin, end - begin + 1));
}

/// Split on a delimiter character. Empty input yields an empty vector;
/// otherwise every delimiter produces a field (possibly empty).
inline std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  while (true) {
    const auto pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Split on runs of whitespace; never yields empty fields.
inline std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t') ++j;
    if (j > i) out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

/// Shortest text that parses back to exactly the same double; integers
/// (sizes, seeds-as-params, cost means) print bare. Used by the scenario
/// serializer and the suite report writers, where the default 6-digit
/// iostream formatting would hide small makespan disagreements.
///
/// Finite values only: a non-finite double throws util::Error instead of
/// silently emitting "inf"/"nan" tokens that no parser on the other side
/// of a wire format accepts (the jsonl parser rejects them by design, and
/// the scenario/corpus readers treat them as malformed). Callers writing
/// human-facing reports where ±inf is a legitimate sentinel (unbounded
/// bound_factor columns) use format_number_lenient instead.
inline std::string format_number(double v) {
  OPTSCHED_REQUIRE(std::isfinite(v),
                   "cannot format non-finite number for a wire format");
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  OPTSCHED_ASSERT(ec == std::errc());
  return std::string(buf, end);
}

/// format_number with ±inf/NaN spelled out ("inf", "-inf", "nan" — the
/// std::to_chars spellings): for CSV columns and log lines read by humans
/// or by name-aware report tooling, never for round-tripped wire formats.
inline std::string format_number_lenient(double v) {
  if (std::isfinite(v)) return format_number(v);
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  OPTSCHED_ASSERT(ec == std::errc());
  return std::string(buf, end);
}

/// RFC 4180 CSV cell: a cell holding a comma, quote, CR or LF is wrapped
/// in quotes with inner quotes doubled; any other cell passes verbatim.
inline std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Join with a separator: join({"a","b"}, ",") == "a,b".
inline std::string join(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace optsched::util
