/// \file class_certificate.hpp
/// \brief The class certificate: proves a loaded fabric free of every
///        routing, reconfiguration and flow finding once per PE class.
///
/// Every PE of a spec-compiled program runs the same code; its PEs differ
/// only in boundary side and switch-protocol role, so a wafer holds a
/// few dozen distinct PEs, not 745,500. One row-parallel pass interns
/// each PE's lint-visible facts into a class id:
///   - for each configured color, its interned switch table (the
///     fabric's RoutePool stores each distinct table once) and its
///     configure count, and whether the program handles the color's data
///     and control deliveries;
///   - the colors it declares data and control sends on, with the summed
///     in-flight bound per color;
///   - its channel dependencies and its arrival-order folds.
/// The same pass records every (class, direction, neighbor class) edge.
///
/// The quotient routing graph has one node per (class, input) and an
/// edge (C, in) -> (D, opposite(out)) for every output `out` of the node
/// and every recorded edge (C, out, D). Each per-PE routing edge maps to
/// a quotient edge, so every per-PE path, cycle and reachable Ramp maps
/// onto the quotient (a graph homomorphism). On the quotient:
///   - switch-reconfigured, dead-end and unrouted-send are decided
///     exactly: they read one node or one edge, and the edge set is
///     exactly the realized neighbor pairs;
///   - routing-cycle and cross-color-deadlock are proved absent when no
///     quotient cycle can close on the fabric: a fabric cycle maps to a
///     closed quotient walk whose hops sum to zero, which cannot exist in
///     a strongly connected component whose hops never go both ways along
///     an axis and whose hop-free edges form no cycle (so the
///     all-reduce's one-way broadcast chains pass);
///   - unhandled-delivery is proved absent by quotient reachability;
///   - buffer-overflow-possible and order-sensitive-reduction are proved
///     absent by counting paths: a quotient path fixes every hop, so two
///     senders that reach a node along one path are one PE. A node's
///     bound sums over its upstream neighbor's forwarding inputs and
///     takes the largest of the neighbor's possible classes; weighted by
///     in-flight bounds it bounds a parkable node's occupancy, unweighted
///     it bounds a fold's senders.
/// When the certificate holds, the per-PE routing, reconfiguration and
/// flow checks would report nothing, and lint::run skips them, on a
/// fabric of any size. When it does not (a real finding, a component
/// with hops both ways, a bound above the router buffer depth), lint::run
/// runs them per PE, unchanged: every diagnostic comes from the per-PE
/// checks.
///
/// Internal to fvf::lint; tests reach it to see which path a lint took.
#pragma once

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "lint/lint.hpp"
#include "wse/fabric.hpp"

namespace fvf::lint::detail {

struct ClassCertificate {
  /// The enabled routing, reconfiguration and flow checks are proved to
  /// report nothing on the fabric.
  bool holds = false;
  /// Distinct PE classes.
  usize classes = 0;
};

/// Interns the fabric's PE classes over `pool` and checks the quotient
/// for the checks `options` enables (check_reconfiguration,
/// check_routing, check_flow; the buffer bound against
/// options.router_buffer_depth, or the fabric's own depth when 0).
[[nodiscard]] ClassCertificate certify(const wse::Fabric& fabric,
                                       const Options& options,
                                       ThreadPool& pool);

/// certify() on the fabric's own host_threads().
[[nodiscard]] ClassCertificate certify(const wse::Fabric& fabric,
                                       const Options& options);

/// lint::run without the certificate: every enabled check walks every PE.
/// lint::run's report equals this one whatever the certificate decides.
[[nodiscard]] Report run_per_pe(const wse::Fabric& fabric,
                                const Options& options);

}  // namespace fvf::lint::detail
