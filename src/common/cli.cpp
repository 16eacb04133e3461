#include "common/cli.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/str_util.h"

namespace ftdl::cli {

Flag flag(const char* name, const char* help, bool* dst) {
  return {name, "", help, "", "", [dst](const char*) { return *dst = true; }};
}

Flag text(const char* name, const char* metavar, const char* help,
          std::string* dst) {
  return {name, metavar, help, "", *dst, [dst](const char* v) {
            *dst = v;
            return true;
          }};
}

Flag real(const char* name, const char* metavar, const char* help,
          double* dst, Sign sign) {
  const bool pos = sign == Sign::Positive;
  const auto ok = [pos](double v) { return pos ? v > 0.0 : v >= 0.0; };
  return {name, metavar, help,
          pos ? "a positive number" : "a non-negative number",
          ok(*dst) ? strformat("%g", *dst) : "", [=](const char* v) {
            double x = 0.0;
            if (!parse_double_strict(v, &x) || !ok(x)) return false;
            *dst = x;
            return true;
          }};
}

Flag choice(const char* name, const char* choices, const char* help,
            std::string* dst) {
  return {name, choices, help, strformat("one of %s", choices), *dst,
          [=](const char* v) {
            std::string set = "|", key = "|";
            (set += choices) += '|';
            (key += v) += '|';
            if (std::strchr(v, '|') || set.find(key) == std::string::npos)
              return false;
            *dst = v;
            return true;
          }};
}

Flag integer(const char* name, const char* metavar, const char* help,
             std::int64_t initial, std::int64_t min, std::int64_t max,
             std::function<void(std::int64_t)> store) {
  return {name, metavar, help,
          strformat("an integer in [%lld, %lld]", static_cast<long long>(min),
                    static_cast<long long>(max)),
          initial >= min && initial <= max ? std::to_string(initial) : "",
          [=](const char* v) {
            std::int64_t x = 0;
            if (!parse_int_strict(v, min, max, &x)) return false;
            store(x);
            return true;
          }};
}

std::string usage(const Spec& spec) {
  const Positional& pos = spec.positional;
  std::vector<std::array<std::string, 3>> rows;  // left, help, default
  if (pos.metavar)
    rows.push_back({pos.metavar, pos.help, pos.required ? "" : *pos.dst});
  for (const Flag& f : spec.flags) {
    const std::string left = strformat("%s %s", f.name, f.metavar);
    rows.push_back({*f.metavar ? left : f.name, f.help, f.shown_default});
  }
  std::size_t width = 0;
  for (const auto& row : rows) width = std::max(width, row[0].size());

  std::string out = strformat("usage: %s", spec.prog);
  if (pos.metavar)
    out += strformat(pos.required ? " %s" : " [%s]", pos.metavar);
  if (!spec.flags.empty()) out += " [options]";
  out += '\n';
  for (const auto& [left, help, shown_default] : rows) {
    out += strformat("  %-*s  %s", static_cast<int>(width), left.c_str(),
                     help.c_str());
    if (!shown_default.empty())
      out += strformat(" (default %s)", shown_default.c_str());
    out += '\n';
  }
  return out;
}

std::string try_parse(const Spec& spec, int argc, const char* const* argv) {
  const Positional& pos = spec.positional;
  const char* operand = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (a[0] != '-') {
      if (!pos.metavar || operand)
        return strformat("unexpected argument '%s'", a);
      operand = a;
      continue;
    }
    const auto f = std::find_if(
        spec.flags.begin(), spec.flags.end(),
        [a](const Flag& g) { return std::strcmp(g.name, a) == 0; });
    if (f == spec.flags.end()) return strformat("unknown option %s", a);
    if (!*f->metavar) {
      f->set(nullptr);
    } else if (i + 1 >= argc) {
      return strformat("missing value for %s", a);
    } else if (!f->set(argv[++i])) {
      return strformat("%s needs %s, got '%s'", a, f->expects.c_str(),
                       argv[i]);
    }
  }
  if (pos.required && !operand)
    return strformat("missing %s argument", pos.metavar);
  // Stored last, so a failed parse leaves the usage's default intact.
  if (operand) *pos.dst = operand;
  return "";
}

void parse(const Spec& spec, int argc, const char* const* argv) {
  const std::string err = try_parse(spec, argc, argv);
  if (err.empty()) return;
  std::fprintf(stderr, "%s: %s\n%s", spec.prog, err.c_str(),
               usage(spec).c_str());
  std::exit(2);
}

}  // namespace ftdl::cli
