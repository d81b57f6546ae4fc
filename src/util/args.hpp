// Minimal command-line parsing for the bench and example binaries.
//
// Supports `--key value` and `--key=value` pairs plus boolean `--flag`.
// Unrecognized keys raise an error so sweep scripts fail loudly on typos,
// and so do value-typed reads of a bare flag (`--csv --threads 4` must not
// silently write a file named "true") and malformed numbers
// (`--threads=abc` names the offending flag instead of leaking a bare
// std::stoll exception).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace hgc {

/// Parsed command-line options with typed, defaulted accessors.
class Args {
 public:
  Args(int argc, const char* const* argv);

  /// Parse an already-tokenized option list (no program name). Lets a main
  /// that shares argv with another parser — e.g. the bench binaries, which
  /// split off google-benchmark's --benchmark_* flags — route its own flags
  /// through the same strict `--key value` / `--key=value` rules, with
  /// errors that name the offending flag.
  explicit Args(std::span<const std::string> tokens);

  /// Value-typed accessors. A key that was given as a bare flag (no `=value`
  /// and no following value token) throws std::invalid_argument naming the
  /// flag; get_int/get_double additionally reject values that are not (in
  /// their entirety) valid numbers.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  /// Boolean accessor: bare `--flag` means true; `=true/1/yes` and
  /// `=false/0/no` are accepted, anything else throws.
  bool get_bool(const std::string& key, bool fallback) const;

  /// Every value given for `key`, in command-line order — repeatable flags
  /// (`--scenario-file a.scn --scenario-file b.scn`) accumulate here while
  /// the single-value accessors keep their last-wins behaviour. Empty when
  /// the key is absent; throws naming the flag when its last occurrence
  /// was a bare flag.
  std::vector<std::string> get_list(const std::string& key) const;

  /// Throws std::invalid_argument if any provided key was never queried;
  /// call after all get()s to catch misspelled options.
  void check_unused() const;

 private:
  /// Raw value, or nullptr when the key is absent; throws when the key was
  /// given as a bare flag (value-typed accessors only).
  const std::string* find_value(const std::string& key) const;

  std::map<std::string, std::string> values_;
  /// All values per key, in command-line order (bare occurrences excluded).
  std::map<std::string, std::vector<std::string>> lists_;
  std::set<std::string> bare_flags_;  ///< keys given without a value
  mutable std::set<std::string> queried_;
};

}  // namespace hgc
