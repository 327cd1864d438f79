// The shipped ASPs: every asps/*.planp file, embedded in the binary when it
// is built (src/apps/CMakeLists.txt). A file is the only copy of its
// program. A caller adapts it to the local servers and topology when it
// downloads it, the paper's point that "the ASP can be easily changed so as
// to permit the addition/removal of a physical server, or to match a new
// network topology" (§3.2): it names top-level `val`s and gives each a new
// value, and the returned text goes unchanged to install, Protocol::compile
// or DEPLOY/1, so the safety analyses verify the values that run.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "net/addr.hpp"

namespace asp::apps {

/// One embedded file: asps/<name>.planp.
struct AspFile {
  std::string_view name;
  std::string_view text;
};

/// Every embedded file, sorted by name.
std::span<const AspFile> asp_files();

/// A new value for a top-level `val` of type `int` or `host`.
struct AspVal {
  std::string_view name;
  std::variant<std::int64_t, net::Ipv4Addr> value;
};

/// `source` with the initializer of each named top-level `val` replaced by
/// its value, rendered as a PLAN-P literal. Only that literal changes: every
/// other byte, and so the line count, stays. Throws std::invalid_argument
/// when `source` has no top-level `val` of that name, or more than one; when
/// the declared type is not the value's; when the initializer is not a
/// literal on the `val`'s own line; or when a name is given twice.
std::string override_vals(std::string_view source,
                          std::initializer_list<AspVal> vals);

/// The text of asps/<name>.planp, with `vals` applied as override_vals
/// does. Throws std::invalid_argument for a name that is no embedded file.
std::string asp_source(std::string_view name,
                       std::initializer_list<AspVal> vals = {});

}  // namespace asp::apps
