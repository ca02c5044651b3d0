#include "spec/launch.hpp"

#include <mutex>
#include <unordered_set>

namespace fvf::spec {

namespace {

u64 shape_key(const CompiledSpec& compiled, Coord2 extents, i32 nz,
              const dataflow::HarnessOptions& options,
              bool reliability_enabled) {
  // FNV-style mix over everything that changes what the linter sees.
  u64 h = compiled.shape_digest();
  const auto mix = [&h](u64 v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<u64>(extents.x));
  mix(static_cast<u64>(extents.y));
  mix(static_cast<u64>(nz));
  mix(options.pe_memory_budget);
  // The buffer-bound verdict compares against the router depth: a pass at
  // depth 64 says nothing about depth 1.
  mix(options.execution.router_buffer_depth);
  mix(reliability_enabled ? 1u : 0u);
  return h;
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
                                          Coord2 extents, i32 nz,
                                          const dataflow::HarnessOptions& base,
                                          bool reliability_enabled) {
  dataflow::HarnessOptions options = base;
  if (options.lint == lint::Level::Strict) {
    return options;
  }
  const u64 key =
      shape_key(compiled, extents, nz, base, reliability_enabled);
  const std::lock_guard<std::mutex> lock(memo_mutex());
  if (memo().count(key) == 0) {
    options.lint = lint::Level::Strict;
  }
  return options;
}

void record_verified(const CompiledSpec& compiled, Coord2 extents, i32 nz,
                     const dataflow::HarnessOptions& effective,
                     bool reliability_enabled) {
  if (effective.lint != lint::Level::Strict) {
    return;
  }
  const u64 key =
      shape_key(compiled, extents, nz, effective, reliability_enabled);
  const std::lock_guard<std::mutex> lock(memo_mutex());
  memo().insert(key);
}

}  // namespace fvf::spec
