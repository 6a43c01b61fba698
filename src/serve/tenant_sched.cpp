#include "serve/tenant_sched.h"

#include <cmath>

#include "util/common.h"

namespace blaze::serve {

TenantScheduler::Tenant& TenantScheduler::tenant_of(const std::string& name) {
  for (Tenant& t : tenants_) {
    if (t.name == name) return t;
  }
  tenants_.push_back(Tenant{});
  tenants_.back().name = name;
  return tenants_.back();
}

void TenantScheduler::register_tenant(const std::string& name,
                                      TenantOptions opts) {
  BLAZE_CHECK(opts.weight > 0, "tenant weight must be positive");
  tenant_of(name).opts = opts;
}

TenantScheduler::Push TenantScheduler::push(const std::string& tenant,
                                            std::uint64_t id) {
  Tenant& t = tenant_of(tenant);
  if (t.opts.max_queued != 0 && t.q.size() >= t.opts.max_queued) {
    ++t.quota_rejected;
    return Push::kQuota;
  }
  t.q.push_back(id);
  ++t.enqueued;
  ++size_;
  if (!t.active) {
    // A newly backlogged tenant joins the TAIL of the ring with zero
    // banked deficit: it cannot preempt the tenant currently in its
    // turn, but it is guaranteed service within one rotation.
    t.active = true;
    t.deficit = 0;
    ring_.push_back(static_cast<std::size_t>(&t - tenants_.data()));
  }
  return Push::kOk;
}

std::optional<std::uint64_t> TenantScheduler::pop() {
  if (size_ == 0) return std::nullopt;
  // Terminates: every tenant in the ring has work (a tenant leaves it
  // the moment its queue drains), and each full rotation grows every
  // active tenant's deficit by its (positive) weight, so a dispatchable
  // deficit >= 1 is eventually reached.
  for (;;) {
    Tenant& t = tenants_[ring_.front()];
    if (t.deficit < 1.0) {
      t.deficit += t.opts.weight;
      if (t.deficit < 1.0) {
        // Fractional weight still banking up: pass the turn.
        ring_.push_back(ring_.front());
        ring_.pop_front();
        continue;
      }
    }
    t.deficit -= 1.0;
    const std::uint64_t id = t.q.front();
    t.q.pop_front();
    ++t.served;
    --size_;
    if (t.q.empty()) {
      // Drained: leave the ring and forfeit any banked deficit (classic
      // DRR — an idle tenant must not hoard credit and burst past its
      // share later).
      t.active = false;
      t.deficit = 0;
      ring_.pop_front();
    } else if (t.deficit < 1.0) {
      // Quantum spent: rotate. (With deficit remaining the tenant keeps
      // the head and the next pop continues its burst — that is what
      // makes per-round service proportional to weight.)
      ring_.push_back(ring_.front());
      ring_.pop_front();
    }
    return id;
  }
}

std::vector<TenantStats> TenantScheduler::stats() const {
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const Tenant& t : tenants_) {
    TenantStats s;
    s.name = t.name;
    s.weight = t.opts.weight;
    s.max_queued = t.opts.max_queued;
    s.queued = t.q.size();
    s.enqueued = t.enqueued;
    s.served = t.served;
    s.quota_rejected = t.quota_rejected;
    out.push_back(std::move(s));
  }
  return out;
}

std::uint64_t TenantScheduler::max_round_dispatches() const {
  double bound = 0;
  for (const Tenant& t : tenants_) {
    // Per visit a tenant dispatches floor(deficit + weight) items with
    // deficit < 1 on entry, so strictly fewer than weight + 1.
    bound += std::floor(t.opts.weight) + 1.0;
  }
  return static_cast<std::uint64_t>(bound);
}

}  // namespace blaze::serve
