#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace gstream {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    const std::string name = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "true" : arg.substr(eq + 1);
    // A repeated flag is always a command-line typo (the second occurrence
    // used to silently win); name the offender instead of guessing intent.
    if (!flags.values_.emplace(name, value).second) {
      std::fprintf(stderr, "--%s given more than once\n", name.c_str());
      std::exit(2);
    }
  }
  return flags;
}

void Flags::RejectUnknown(const std::vector<std::string>& known,
                          const std::string& usage) const {
  bool unknown = false;
  for (const auto& [name, value] : values_) {
    if (name == "help" ||
        std::find(known.begin(), known.end(), name) != known.end())
      continue;
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    unknown = true;
  }
  if (!unknown && !Has("help")) return;
  std::fprintf(stderr, "%s\n", usage.c_str());
  std::exit(unknown ? 2 : 0);
}

std::string Flags::GetString(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

int64_t Flags::GetIntAtLeast(const std::string& name, int64_t def,
                             int64_t min) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const int64_t value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "--%s: expected an integer, got '%s'\n", name.c_str(),
                 text);
    std::exit(2);
  }
  if (value < min) {
    std::fprintf(stderr, "--%s must be >= %lld (got %lld)\n", name.c_str(),
                 static_cast<long long>(min), static_cast<long long>(value));
    std::exit(2);
  }
  return value;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace gstream
