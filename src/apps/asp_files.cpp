#include "apps/asp_files.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "planp/parser.hpp"

namespace asp::apps {

namespace {

// Written from asps/*.planp by src/apps/CMakeLists.txt, sorted by name.
constexpr AspFile kFiles[] = {
#include "asp_files.inc"
};

std::invalid_argument bad_val(std::string_view name, const std::string& why) {
  return std::invalid_argument("val " + std::string(name) + ": " + why);
}

}  // namespace

std::span<const AspFile> asp_files() { return kFiles; }

std::string override_vals(std::string_view source,
                          std::initializer_list<AspVal> vals) {
  std::string out(source);
  if (vals.size() == 0) return out;
  const planp::Program program = planp::parse(out);

  // Where each value's literal starts in `out`, and the text that replaces it.
  struct Edit {
    std::size_t at;
    std::string text;
  };
  std::vector<Edit> edits;
  for (const AspVal& v : vals) {
    const planp::ValDef* def = nullptr;
    for (const planp::Program::Decl& d : program.decls) {
      const auto* val = std::get_if<planp::ValDef>(&d);
      if (val == nullptr || val->name != v.name) continue;
      if (def != nullptr) throw bad_val(v.name, "declared twice");
      def = val;
    }
    if (def == nullptr) throw bad_val(v.name, "not declared as a top-level val");
    const bool host = std::holds_alternative<net::Ipv4Addr>(v.value);
    if (!def->type->is(host ? planp::Type::Kind::kHost : planp::Type::Kind::kInt)) {
      throw bad_val(v.name, "declared " + def->type->str() + ", given " +
                                (host ? "host" : "int"));
    }
    const planp::Expr& init = *def->init;
    if ((init.kind != planp::Expr::Kind::kIntLit &&
         init.kind != planp::Expr::Kind::kHostLit) ||
        init.loc.line != def->loc.line) {
      throw bad_val(v.name, "initializer is not a literal on the val's line");
    }
    std::size_t at = 0;
    for (int line = 1; line < init.loc.line; ++line) at = out.find('\n', at) + 1;
    at += static_cast<std::size_t>(init.loc.col - 1);
    for (const Edit& e : edits) {
      if (e.at == at) throw bad_val(v.name, "given twice");
    }
    edits.push_back({at, host ? std::get<net::Ipv4Addr>(v.value).str()
                              : std::to_string(std::get<std::int64_t>(v.value))});
  }
  // Back to front, so that each edit leaves the offsets before it valid.
  std::sort(edits.begin(), edits.end(),
            [](const Edit& a, const Edit& b) { return a.at > b.at; });
  for (const Edit& e : edits) {
    const std::size_t end = std::min(out.find_first_not_of("0123456789.", e.at),
                                     out.size());
    out.replace(e.at, end - e.at, e.text);
  }
  return out;
}

std::string asp_source(std::string_view name, std::initializer_list<AspVal> vals) {
  for (const AspFile& f : kFiles) {
    if (f.name == name) return override_vals(f.text, vals);
  }
  throw std::invalid_argument("no ASP file asps/" + std::string(name) + ".planp");
}

}  // namespace asp::apps
