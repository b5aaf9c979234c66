#pragma once
/// \file options.hpp
/// \brief Tiny command-line option parser shared by examples and benches.
///
/// Accepts `--key value`, `--key=value` and boolean `--flag` forms. Typed
/// getters with defaults; `--help` text is assembled from the registered
/// descriptions. Unknown options are an error so typos fail loudly.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sptd {

/// Declarative CLI options. Register options, then parse(argc, argv),
/// then read typed values.
class Options {
 public:
  /// \p program and \p summary appear at the top of --help output.
  Options(std::string program, std::string summary);

  /// Registers an option taking a value, with a default shown in help.
  void add(const std::string& name, const std::string& default_value,
           const std::string& help);

  /// Registers a boolean flag (present => true).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Throws sptd::Error on unknown options or missing values.
  /// Returns false if --help was requested (help text already printed).
  bool parse(int argc, const char* const* argv);

  /// True if the option was given on the command line (not just defaulted).
  [[nodiscard]] bool given(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// get_int() narrowed to int once it is known to lie in [lo, INT_MAX];
  /// any other value throws naming the option instead of wrapping.
  [[nodiscard]] int get_int_at_least(const std::string& name, int lo) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Parses a \p separator-separated integer list, e.g. "1,2,4,8,16,32"
  /// or, with 'x', "8x8x8". An empty entry (a leading, doubled or
  /// trailing separator) or one outside int's range throws naming the
  /// option.
  [[nodiscard]] std::vector<int> get_int_list(const std::string& name,
                                              char separator = ',') const;

  /// Positional arguments (everything not starting with --).
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Renders the help text.
  [[nodiscard]] std::string help() const;

 private:
  struct Opt {
    std::string default_value;
    std::string help;
    bool is_flag = false;
    std::optional<std::string> value;
  };
  const Opt& find(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::map<std::string, Opt> opts_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace sptd
