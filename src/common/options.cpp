#include "common/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace sptd {

Options::Options(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void Options::add(const std::string& name, const std::string& default_value,
                  const std::string& help) {
  SPTD_CHECK(opts_.find(name) == opts_.end(), "duplicate option: " + name);
  opts_[name] = Opt{default_value, help, /*is_flag=*/false, std::nullopt};
  order_.push_back(name);
}

void Options::add_flag(const std::string& name, const std::string& help) {
  SPTD_CHECK(opts_.find(name) == opts_.end(), "duplicate option: " + name);
  opts_[name] = Opt{"false", help, /*is_flag=*/true, std::nullopt};
  order_.push_back(name);
}

bool Options::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = opts_.find(name);
    if (it == opts_.end()) {
      throw Error("unknown option --" + name);
    }
    Opt& opt = it->second;
    if (opt.is_flag) {
      opt.value = inline_value.value_or("true");
    } else if (inline_value) {
      opt.value = *inline_value;
    } else {
      if (i + 1 >= argc) {
        throw Error("option --" + name + " requires a value");
      }
      opt.value = argv[++i];
    }
  }
  return true;
}

const Options::Opt& Options::find(const std::string& name) const {
  auto it = opts_.find(name);
  SPTD_CHECK(it != opts_.end(), "option not registered: " + name);
  return it->second;
}

bool Options::given(const std::string& name) const {
  return find(name).value.has_value();
}

std::string Options::get_string(const std::string& name) const {
  const Opt& opt = find(name);
  return opt.value.value_or(opt.default_value);
}

std::int64_t Options::get_int(const std::string& name) const {
  const std::string s = get_string(name);
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw Error("option --" + name + " expects an integer, got '" + s + "'");
  }
  return v;
}

int Options::get_int_at_least(const std::string& name, int lo) const {
  const std::int64_t v = get_int(name);
  if (v < lo || v > std::numeric_limits<int>::max()) {
    throw Error("option --" + name + " must be an int >= " +
                std::to_string(lo) + ", got " + std::to_string(v));
  }
  return static_cast<int>(v);
}

double Options::get_double(const std::string& name) const {
  const std::string s = get_string(name);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw Error("option --" + name + " expects a number, got '" + s + "'");
  }
  return v;
}

bool Options::get_bool(const std::string& name) const {
  const std::string s = get_string(name);
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  throw Error("option --" + name + " expects a boolean, got '" + s + "'");
}

std::vector<int> Options::get_int_list(const std::string& name,
                                       char separator) const {
  const std::string s = get_string(name);
  if (s.empty()) {
    throw Error("option --" + name + " list is empty");
  }
  std::vector<int> out;
  // Every separator splits two entries, so a leading, doubled or trailing
  // one leaves an empty entry, which is refused rather than skipped.
  for (std::size_t at = 0; at <= s.size();) {
    const std::size_t stop = std::min(s.find(separator, at), s.size());
    const std::string tok = s.substr(at, stop - at);
    at = stop + 1;
    if (tok.empty()) {
      throw Error("option --" + name + " has an empty entry in '" + s + "'");
    }
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0') {
      throw Error("option --" + name + " expects integers, got '" + tok +
                  "'");
    }
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      throw Error("option --" + name + " entry out of int range: '" + tok +
                  "'");
    }
    out.push_back(static_cast<int>(v));
  }
  return out;
}

std::string Options::help() const {
  std::ostringstream os;
  os << program_ << " — " << summary_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Opt& opt = opts_.at(name);
    os << "  --" << name;
    if (!opt.is_flag) {
      os << " <value>  (default: " << opt.default_value << ")";
    }
    os << "\n      " << opt.help << "\n";
  }
  os << "  --help\n      Print this message.\n";
  return os.str();
}

}  // namespace sptd
