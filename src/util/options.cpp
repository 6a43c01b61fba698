#include "util/options.h"

#include <cctype>
#include <cstdlib>

namespace blaze {

namespace {

/// A token is a flag when it starts with '-' but is not a negative number.
bool is_flag_token(const char* arg) {
  return arg[0] == '-' && arg[1] != '\0' &&
         !(std::isdigit(static_cast<unsigned char>(arg[1])) || arg[1] == '.');
}

}  // namespace

Options::Options(int argc, const char* const* argv,
                 std::set<std::string> boolean_flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (is_flag_token(arg.c_str())) {
      std::string name = arg.substr(arg[1] == '-' ? 2 : 1);
      auto eq = name.find('=');
      if (eq != std::string::npos) {
        flags_[name.substr(0, eq)] = name.substr(eq + 1);
      } else if (boolean_flags.count(name) != 0) {
        flags_[name] = "true";
      } else if (i + 1 < argc && !is_flag_token(argv[i + 1])) {
        flags_[name] = argv[++i];
      } else {
        flags_[name] = "true";  // boolean flag
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Options::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string Options::get_string(const std::string& name,
                                const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Options::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Options::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace blaze
