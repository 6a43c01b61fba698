// Tiny command-line option parser for the tools and examples.
//
// Mirrors the flag style of the Blaze artifact, e.g.
//   ./bfs -computeWorkers 16 -startNode 0 graph.gr.index graph.gr.adj.0
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace blaze {

/// Parses `-flag value` pairs and bare positional arguments. Flags may be
/// given as `-name v` or `-name=v`.
class Options {
 public:
  /// `boolean_flags` names flags that never consume a following value
  /// (e.g. "-weighted out_prefix" keeps out_prefix positional). Flags not
  /// listed consume the next non-flag token as their value.
  Options(int argc, const char* const* argv,
          std::set<std::string> boolean_flags = {});

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace blaze
