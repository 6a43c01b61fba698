// Admission failure taxonomy for the serving layer.
//
// Mirrors io::IoError's shape: a typed exception whose *kind* tells the
// client how to react. Overload is the serving-layer analogue of a
// transient device fault — the query was never admitted, so resubmitting
// after backoff is safe and expected. Shutdown is permanent for the
// submitted query: resubmission cannot help (the engine is going away).
//
// Header-only and dependency-free so callers can catch ServeError without
// linking blaze_serve.
#pragma once

#include <stdexcept>
#include <string>

namespace blaze::serve {

/// Classification of an admission failure, deciding the client's reaction.
enum class RejectKind {
  kOverloaded,      ///< submission queue full: back off and resubmit
  kShuttingDown,    ///< engine draining: no new queries will ever be admitted
  kQuotaExceeded,   ///< the tenant's admission quota is full: this tenant
                    ///< must drain its own backlog first — resubmitting
                    ///< immediately would be rejected again, and other
                    ///< tenants' capacity is deliberately not available
};

inline const char* to_string(RejectKind kind) {
  switch (kind) {
    case RejectKind::kOverloaded: return "overloaded";
    case RejectKind::kShuttingDown: return "shutting-down";
    case RejectKind::kQuotaExceeded: return "quota-exceeded";
  }
  return "unknown";
}

/// Typed rejection raised by QueryEngine::submit (kOverloaded,
/// kShuttingDown, kQuotaExceeded).
class ServeError : public std::runtime_error {
 public:
  ServeError(RejectKind kind, const std::string& what)
      : std::runtime_error(std::string("[serve] ") + to_string(kind) +
                           ": " + what),
        kind_(kind) {}

  RejectKind kind() const { return kind_; }

  /// Only whole-engine overload is worth resubmitting after backoff. A
  /// quota rejection is not: the engine has capacity, *this tenant* does
  /// not, and hammering submit() from a quota-limited tenant is exactly the
  /// behaviour the quota exists to stop.
  bool retryable() const { return kind_ == RejectKind::kOverloaded; }

 private:
  RejectKind kind_;
};

}  // namespace blaze::serve
