/// \file request.hpp
/// \brief Scenario requests of the fvf::serve front-end: the parsed
///        schema, field canonicalization, and the content hash that keys
///        every cache layer.
///
/// A scenario request names one of the six api::kernels() programs plus
/// the inputs that determine its result bit-for-bit: mesh extents, geomodel
/// seed, iteration/window counts, timestep, tolerance, and the fault
/// scenario. Because the simulator is deterministic (and bit-identical
/// for every --threads value), that tuple is a perfect memoization key —
/// scenario_hash() is computed over the *canonical* form of exactly those
/// fields, so spelling variants ("fault-rate" vs "fault_rate", field
/// order, "1e-05" vs "0.00001") hash identically, while scheduling
/// metadata (threads, priority, deadline) never pollutes the key.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/kernels.hpp"
#include "common/types.hpp"
#include "lint/lint.hpp"

namespace fvf::serve {

/// The table name of a request's program.
[[nodiscard]] inline std::string_view program_name(
    const api::Kernel* program) noexcept {
  return program->name;
}

/// Admission priority class. Lower enum value = more important. When the
/// bounded queue overflows the service sheds from the lowest class first
/// (and within a class, the youngest request).
enum class Priority : u8 { Interactive = 0, Batch = 1, Background = 2 };

[[nodiscard]] std::string_view priority_name(Priority priority) noexcept;

/// Which execution backend runs the scenario. Auto resolves by priority
/// at resolve_defaults time: Background requests route to the executing
/// gpusim backend (freeing the fabric for interactive work), everything
/// else to the wse fabric. The *resolved* backend is a content field —
/// it joins canonical_content()/scenario_hash(), so a memoized fabric
/// result can never answer a gpusim request or vice versa.
enum class BackendChoice : u8 { Auto = 0, Wse = 1, Gpusim = 2 };

[[nodiscard]] std::string_view backend_choice_name(
    BackendChoice backend) noexcept;

/// A parsed scenario request.
///
/// Content fields (hashed): program, backend (resolved), nx, ny, nz,
/// seed, iterations, dt, tol, fault_seed, fault_rate. Scheduling fields
/// (not hashed): threads, lint, priority, deadline_ms, checkpoint_every.
struct ScenarioRequest {
  /// The api::kernels() entry the scenario runs; never null.
  const api::Kernel* program = &api::kernels().front();

  // --- content: what the simulation computes -------------------------------
  i32 nx = 6;
  i32 ny = 6;
  i32 nz = 4;
  /// Geomodel / field seed (physics::ProblemSpec::seed).
  u64 seed = 42;
  /// Program-specific work count: TPFA iterations, CG max iterations,
  /// wave timesteps, transport windows (always 1), IMPES windows.
  i32 iterations = 0;  ///< 0 = Kernel::default_iterations
  /// Timestep / window seconds: CG+wave stencil dt, transport/IMPES
  /// window length.
  f64 dt = 0.0;  ///< 0 = Kernel::default_dt
  /// CG relative tolerance (ignored by the other programs).
  f64 tol = 1e-5;
  /// Fault scenario (wse::FaultConfig::uniform(fault_seed, fault_rate)).
  /// Fabric-only: the gpusim backend has no fault injection and ignores
  /// these (they still hash, keeping the canonical form uniform).
  u64 fault_seed = 1;
  f64 fault_rate = 0.0;
  /// Execution backend. Auto resolves by priority (see BackendChoice);
  /// the resolved value is hashed as content.
  BackendChoice backend = BackendChoice::Auto;

  // --- scheduling: how the service runs it (never hashed) ------------------
  /// Event-engine host threads. Results are bit-identical for every
  /// value, which is exactly why this is not part of the scenario hash.
  i32 threads = 1;
  /// Static verification level applied at load. Lint findings are a
  /// property of the program structure, not the data, so successful
  /// verification is cached per (program, extents, level) and skipped on
  /// later requests.
  lint::Level lint = lint::Level::Off;
  Priority priority = Priority::Batch;
  /// Wall-clock deadline in milliseconds from submission; 0 = none. An
  /// expired deadline cancels the request cleanly (at dequeue, or between
  /// IMPES windows mid-run) with a recorded error.
  u64 deadline_ms = 0;
  /// IMPES only: checkpoint the job state every N windows (0 = off) so an
  /// interrupted job resumes instead of recomputing. Requires the
  /// service's checkpoint_dir.
  i32 checkpoint_every = 0;
};

/// Parses a `key=value ...` request line (whitespace- or comma-separated
/// tokens, `#` starts a comment). Keys are case-sensitive but
/// spelling-normalized: dashes become underscores and the documented
/// aliases (steps/windows -> iterations, tolerance -> tol, window ->
/// dt, fault-seed/fault-rate spellings) map to the canonical field.
/// Throws ContractViolation on an unknown key, a malformed value, or an
/// out-of-range field.
[[nodiscard]] ScenarioRequest parse_request(std::string_view line);

/// Returns the request with the program's table iteration/dt defaults
/// resolved (0 sentinels replaced), after validating every field. The
/// executor and the canonical hash both operate on resolved requests so
/// an explicit "iterations=200" and a defaulted CG request are the same
/// scenario.
[[nodiscard]] ScenarioRequest resolve_defaults(const ScenarioRequest& request);

/// The canonical content string the scenario hash is computed over:
/// the content fields only, canonically spelled, canonically formatted,
/// in one fixed order. Two requests with equal canonical_content are the
/// same scenario by construction.
[[nodiscard]] std::string canonical_content(const ScenarioRequest& request);

/// FNV-1a 64-bit over canonical_content().
[[nodiscard]] u64 scenario_hash(const ScenarioRequest& request);

}  // namespace fvf::serve
