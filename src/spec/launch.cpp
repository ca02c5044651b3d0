#include "spec/launch.hpp"

#include <mutex>
#include <unordered_set>

#include "common/hash.hpp"

namespace fvf::spec {

namespace {

u64 shape_key(const CompiledSpec& compiled, Extents3 extents,
              const dataflow::HarnessOptions& options, bool reliable) {
  // Everything that changes what the linter sees, chained onto the
  // spec's structural digest.
  u64 h = compiled.shape_digest();
  h = fnv1a_mix(h, static_cast<u64>(extents.nx));
  h = fnv1a_mix(h, static_cast<u64>(extents.ny));
  h = fnv1a_mix(h, static_cast<u64>(extents.nz));
  h = fnv1a_mix(h, options.pe_memory_budget);
  // The buffer-bound verdict compares against the router depth: a pass at
  // depth 64 says nothing about depth 1.
  h = fnv1a_mix(h, options.execution.router_buffer_depth);
  return fnv1a_mix(h, reliable ? 1u : 0u);
}

std::mutex& memo_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_set<u64>& memo() {
  static std::unordered_set<u64> passes;
  return passes;
}

}  // namespace

dataflow::HarnessOptions verified_options(const CompiledSpec& compiled,
                                          Extents3 extents,
                                          const dataflow::HarnessOptions& base,
                                          bool reliable) {
  dataflow::HarnessOptions options = base;
  if (options.lint == lint::Level::Strict) {
    return options;
  }
  const u64 key = shape_key(compiled, extents, base, reliable);
  const std::lock_guard<std::mutex> lock(memo_mutex());
  if (memo().count(key) == 0) {
    options.lint = lint::Level::Strict;
  }
  return options;
}

void record_verified(const CompiledSpec& compiled, Extents3 extents,
                     const dataflow::HarnessOptions& effective, bool reliable) {
  if (effective.lint != lint::Level::Strict) {
    return;
  }
  const u64 key = shape_key(compiled, extents, effective, reliable);
  const std::lock_guard<std::mutex> lock(memo_mutex());
  memo().insert(key);
}

lint::Report lint_report(StencilSpec spec, Extents3 extents,
                         const dataflow::HarnessOptions& options) {
  const bool reliable = detail::reliable(spec, options);
  dataflow::HarnessOptions unchecked = options;
  unchecked.lint = lint::Level::Off;
  const Load<> load = detail::load_compiled<SpecPeProgram>(
      std::make_shared<const CompiledSpec>(compile(std::move(spec))), extents,
      [](Coord2) { return std::unique_ptr<StencilKernel>(); }, unchecked,
      reliable);
  return load.harness->lint_report();
}

}  // namespace fvf::spec
