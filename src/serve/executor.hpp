/// \file executor.hpp
/// \brief Runs a parsed scenario request through its api::kernels()
///        entry, sharing the expensive setup across requests.
///
/// Three content-hash cache layers sit between a request and the event
/// engine:
///
///   - **problem cache** — geomodel + mesh + transmissibility
///     construction (physics::FlowProblem), keyed by extents/seed/kind;
///   - **setup cache** — the linearized pressure system (stencil build,
///     manufactured RHS, Jacobi scaling) shared by the CG and wave
///     scenarios, keyed by problem + dt;
///   - **lint cache** — successful static verification (routing graphs,
///     memory budgets, switch hazards are a property of program
///     structure, not data), keyed by program/extents/level, so only the
///     first request of a shape pays for fvf::lint.
///
/// Full-result memoization lives above this layer, in ScenarioService.
/// The executor also implements checkpoint/restore of long IMPES jobs
/// via the src/io/checkpoint field format plus a small meta file.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "api/kernels.hpp"
#include "physics/problem.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace fvf::serve {

/// Cancellation/checkpoint context the service passes per execution.
struct ExecutionContext {
  /// Returns true once the request's deadline has expired. Consulted
  /// between fabric launches (IMPES window boundaries) — a launch is
  /// never interrupted mid-flight, so cancellation leaves no partial
  /// state. Null = no deadline.
  std::function<bool()> expired;
  /// Directory for long-job checkpoints; empty disables checkpointing.
  std::string checkpoint_dir;
};

/// Monotonic accounting of one executor.
struct ExecutorStats {
  CacheStats problems;
  CacheStats setups;
  CacheStats lint;
  /// Scenario executions that reached a fabric launch (cold runs).
  u64 simulations = 0;
  u64 checkpoints_saved = 0;
  u64 resumes = 0;
};

class ScenarioExecutor {
 public:
  /// Default LRU capacity of each cache layer (entries). Generous: a
  /// replay workload rarely touches more than a few dozen shapes.
  static constexpr usize kDefaultCacheEntries = 1024;

  ScenarioExecutor();
  /// `cache_entries` bounds each cache layer (0 = unbounded).
  explicit ScenarioExecutor(usize cache_entries);
  ~ScenarioExecutor();

  ScenarioExecutor(const ScenarioExecutor&) = delete;
  ScenarioExecutor& operator=(const ScenarioExecutor&) = delete;

  /// Runs the scenario through its kernel table entry and returns the
  /// response. Failures (lint strict, fabric errors, non-convergence)
  /// come back as status Failed with the reason recorded — execute never
  /// throws on a bad scenario. A mid-run deadline expiry returns
  /// DeadlineExpired with the accounting accumulated so far.
  [[nodiscard]] ScenarioResponse execute(const ScenarioRequest& request,
                                         const ExecutionContext& context);

  [[nodiscard]] ExecutorStats stats() const;

 private:
  /// The serve side of the fabric IMPES window loop: resumes from,
  /// saves and finally removes checkpoints, and stops at a window
  /// boundary once the deadline expired, marking `response`
  /// DeadlineExpired.
  [[nodiscard]] std::function<bool(api::ImpesWindowState&)> impes_windows(
      const ScenarioRequest& request, const ExecutionContext& context,
      ScenarioResponse& response);

  [[nodiscard]] std::shared_ptr<const physics::FlowProblem> problem_for(
      const ScenarioRequest& request);
  [[nodiscard]] std::shared_ptr<const api::LinearSystem> setup_for(
      const ScenarioRequest& request);

  /// The lint level the run should use: the request's level on first
  /// sight of a (program, extents, level) shape, Off once that shape has
  /// verified cleanly before. record_lint_pass() marks the shape clean.
  [[nodiscard]] lint::Level effective_lint(const ScenarioRequest& request);
  void record_lint_pass(const ScenarioRequest& request);

  HashCache<physics::FlowProblem> problems_;
  HashCache<api::LinearSystem> setups_;
  HashCache<bool> lint_passes_;
  std::atomic<u64> simulations_{0};
  std::atomic<u64> checkpoints_saved_{0};
  std::atomic<u64> resumes_{0};
};

}  // namespace fvf::serve
