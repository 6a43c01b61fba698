// serve::TenantScheduler — per-tenant admission quotas + weighted fair
// queueing (deficit round-robin) over the engine's submission queue.
//
// One FIFO is the right policy when every query belongs to the same
// principal. A shared service cannot do that: one chatty tenant's backlog
// would delay everyone else's queries until it drained. FlashShare's
// per-tenant SSD QoS observation applies one layer up — fairness must be
// enforced where the queue is, before the IO machinery ever sees the work.
//
// The scheduler keeps one FIFO queue per tenant and serves tenants by
// deficit round-robin (Shreedhar & Varghese): each tenant
// carries a deficit counter; when its turn comes the deficit grows by its
// weight (the quantum), and the tenant may dispatch one query per unit of
// deficit before the turn passes on. Over any backlogged interval each
// tenant's served share converges to weight_i / sum(weights), yet a
// tenant that only ever has one query queued (the latency-sensitive
// probe) waits at most one round: O(sum of weights) dispatches, never
// "until the heavy tenant's backlog drains".
//
// When a tenant's turn comes, its oldest queued query runs.
//
// Quotas bound per-tenant *queued* work: a submit that would exceed
// max_queued for its tenant is rejected with ServeError{kQuotaExceeded}
// without touching any other tenant's capacity. This is admission
// control per principal, typed so clients can tell "my quota" apart from
// "the service is overloaded" (retryable() is false for quota).
//
// Thread-compatibility: NOT internally synchronized. Every method is
// called under the owning QueryEngine's queue mutex; the standalone unit
// tests drive it single-threaded. Queue items are opaque u64 ids — the
// engine maps them back to its Entry records — so this header stays free
// of engine types and the DRR logic stays unit-testable in isolation.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace blaze::serve {

/// Registration-time knobs of one tenant.
struct TenantOptions {
  /// DRR quantum: served-work share converges to weight / sum(weights)
  /// while backlogged. Must be > 0; fractional weights work (a 0.5-weight
  /// tenant banks deficit over two rounds per dispatch).
  double weight = 1.0;

  /// Max queries this tenant may have queued (not yet running); one more
  /// is rejected with kQuotaExceeded. 0 = unlimited (the engine-wide
  /// max_queue_depth still applies).
  std::size_t max_queued = 0;
};

/// One tenant's counters + live state (snapshot; see stats()).
struct TenantStats {
  std::string name;
  double weight = 1.0;
  std::size_t max_queued = 0;       ///< 0 = unlimited
  std::size_t queued = 0;           ///< in the scheduler right now
  std::uint64_t enqueued = 0;       ///< accepted pushes, lifetime
  std::uint64_t served = 0;         ///< pops, lifetime
  std::uint64_t quota_rejected = 0; ///< pushes refused on max_queued
};

class TenantScheduler {
 public:
  /// Outcome of an admission probe (the engine converts kQuota into a
  /// thrown ServeError{kQuotaExceeded}).
  enum class Push { kOk, kQuota };

  /// Registers (or re-weights) a tenant. Unknown tenants named in push()
  /// are auto-registered with default TenantOptions, so single-tenant
  /// callers never have to know this class exists.
  void register_tenant(const std::string& name, TenantOptions opts = {});

  /// Enqueues item `id` for `tenant`, or reports kQuota when the
  /// tenant's max_queued is already reached (counted on the tenant;
  /// nothing is enqueued).
  Push push(const std::string& tenant, std::uint64_t id);

  /// Dispatches the next item per DRR over tenants, the oldest of the
  /// chosen tenant's queue. nullopt when every queue is empty.
  std::optional<std::uint64_t> pop();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Per-tenant snapshot, registration order.
  std::vector<TenantStats> stats() const;

  /// Worst-case dispatches a freshly enqueued single query can wait with
  /// cost-1 DRR: one full ring rotation. Every other tenant serves at
  /// most floor(deficit + weight) < weight + 1 items per visit. The
  /// fairness property test asserts its probe against this bound.
  std::uint64_t max_round_dispatches() const;

 private:
  struct Tenant {
    std::string name;
    TenantOptions opts;
    std::deque<std::uint64_t> q;
    double deficit = 0;
    bool active = false;  ///< linked into ring_
    std::uint64_t enqueued = 0;
    std::uint64_t served = 0;
    std::uint64_t quota_rejected = 0;
  };

  Tenant& tenant_of(const std::string& name);

  /// Registration-ordered tenant storage; ring_ holds indices into it.
  /// (Stable indices: tenants are never erased, only their queues drain.)
  std::vector<Tenant> tenants_;
  std::deque<std::size_t> ring_;  ///< active tenants, DRR order
  std::size_t size_ = 0;          ///< total queued across tenants
};

}  // namespace blaze::serve
