#include "algorithms/mis.h"

#include "algorithms/detail/atomics.h"
#include "core/edge_map.h"

namespace blaze::algorithms {

namespace {

/// Undecided vertices advertise their priority; each undecided
/// destination keeps the maximum it hears.
struct PriorityProgram {
  using value_type = std::uint32_t;
  const std::vector<MisState>& state;
  std::vector<std::uint32_t>& nbr_max;

  value_type scatter(vertex_t s, vertex_t) const { return mis_priority(s); }
  bool cond(vertex_t d) const {
    return state[d] == MisState::kUndecided;
  }
  bool gather(vertex_t d, value_type v) {
    if (v > nbr_max[d]) nbr_max[d] = v;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type v) {
    std::atomic_ref<std::uint32_t> ref(nbr_max[d]);
    std::uint32_t cur = ref.load(std::memory_order_relaxed);
    while (v > cur &&
           !ref.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    return true;
  }
};

/// Fresh MIS members knock their undecided neighbors out.
struct KnockoutProgram {
  using value_type = std::uint32_t;
  std::vector<MisState>& state;

  value_type scatter(vertex_t, vertex_t) const { return 1; }
  bool cond(vertex_t d) const {
    return state[d] == MisState::kUndecided;
  }
  bool gather(vertex_t d, value_type) {
    state[d] = MisState::kOut;
    return true;
  }
  bool gather_atomic(vertex_t d, value_type) {
    // Benign race: every writer stores the same value.
    std::atomic_ref<std::uint8_t>(
        reinterpret_cast<std::uint8_t&>(state[d]))
        .store(static_cast<std::uint8_t>(MisState::kOut),
               std::memory_order_relaxed);
    return true;
  }
};

}  // namespace

MisResult mis(core::Runtime& rt, const format::OnDiskGraph& out_g,
              const format::OnDiskGraph& in_g) {
  BLAZE_CHECK(out_g.num_vertices() == in_g.num_vertices(),
              "mis: graph/transpose vertex count mismatch");
  const vertex_t n = out_g.num_vertices();
  MisResult result;
  result.state.assign(n, MisState::kUndecided);
  std::vector<std::uint32_t> nbr_max(n, 0);

  core::VertexSubset undecided = core::VertexSubset::all(n);
  core::EdgeMapOptions no_out;
  no_out.output = false;
  no_out.stats = &result.stats;

  while (!undecided.empty()) {
    ++result.rounds;
    // 1. Undecided vertices advertise priorities both ways.
    PriorityProgram prio{result.state, nbr_max};
    core::edge_map(rt, {&out_g, &in_g}, undecided, prio, no_out);

    // 2. Local winners join the set.
    core::VertexSubset winners = core::vertex_map(
        rt, undecided,
        [&](vertex_t v) {
          if (result.state[v] != MisState::kUndecided) return false;
          // >= rather than >: priorities are unique across vertices, so
          // equality can only come from a self-loop, which an MIS ignores.
          if (mis_priority(v) >= nbr_max[v]) {
            result.state[v] = MisState::kIn;
            return true;
          }
          return false;
        },
        &result.stats);

    // 3. Winners knock out their undecided neighbors.
    KnockoutProgram knock{result.state};
    core::edge_map(rt, {&out_g, &in_g}, winners, knock, no_out);

    // 4. Shrink the undecided set; reset heard priorities.
    undecided = core::vertex_map(
        rt, undecided,
        [&](vertex_t v) {
          nbr_max[v] = 0;
          return result.state[v] == MisState::kUndecided;
        },
        &result.stats);
  }
  return result;
}

}  // namespace blaze::algorithms
