#ifndef GSTREAM_COMMON_FLAGS_H_
#define GSTREAM_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gstream {

/// Minimal `--key=value` / `--switch` command-line parser for the tools,
/// bench and example binaries. Parse accepts any flag name, so binaries that
/// share argv with google-benchmark's own flags still parse; binaries with a
/// fixed flag set call RejectUnknown.
class Flags {
 public:
  /// Parses argv; flags look like `--name=value` or bare `--name` (= "true").
  static Flags Parse(int argc, char** argv);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name, const std::string& def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// Strictly parsed integer in [min, 2^63): a present flag that is not a
  /// number, has trailing junk, or is below `min` prints a clear error to
  /// stderr and exits with status 2 (config typos like `--batch=0` or
  /// `--threads=-1` must not silently run a degenerate setup). Absent flags
  /// return `def` unchecked.
  int64_t GetIntAtLeast(const std::string& name, int64_t def, int64_t min) const;

  /// GetIntAtLeast with min = 1: window sizes, thread counts, scales.
  int64_t GetPositiveInt(const std::string& name, int64_t def) const {
    return GetIntAtLeast(name, def, 1);
  }

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Strict check for binaries with a fixed flag set: every flag present
  /// but missing from `known` is named on stderr, then `usage` is printed
  /// and the process exits with status 2 (a typo, or a flag a later version
  /// removed, must not silently run a different configuration). `--help`
  /// prints `usage` and exits 0.
  void RejectUnknown(const std::vector<std::string>& known,
                     const std::string& usage) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace gstream

#endif  // GSTREAM_COMMON_FLAGS_H_
