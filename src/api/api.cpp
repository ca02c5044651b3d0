#include "api/api.hpp"

#include "common/assert.hpp"

namespace fvf::api {

FieldEquationSpec resolve_spec(const FieldEquationSpec& spec) {
  const Kernel* kernel = find_kernel(spec.kernel);
  FVF_REQUIRE_MSG(kernel != nullptr,
                  "unknown kernel '" << spec.kernel << "' (registered kernels: "
                                     << kernel_name_list() << ")");
  FieldEquationSpec resolved = spec;
  if (resolved.iterations == 0) {
    resolved.iterations = kernel->default_iterations;
  }
  if (resolved.dt == 0.0) {
    resolved.dt = kernel->default_dt;
  }
  FVF_REQUIRE_MSG(resolved.nx > 0 && resolved.ny > 0 && resolved.nz > 0,
                  "field-equation extents must be positive ("
                      << resolved.nx << 'x' << resolved.ny << 'x'
                      << resolved.nz << ')');
  FVF_REQUIRE(resolved.iterations > 0);
  FVF_REQUIRE(resolved.dt > 0.0);
  FVF_REQUIRE(resolved.tol > 0.0);
  FVF_REQUIRE(resolved.threads >= 1);
  return resolved;
}

FieldEquationResult run_field_equation(const FieldEquationSpec& raw,
                                       Backend backend) {
  const FieldEquationSpec spec = resolve_spec(raw);
  const Kernel& kernel = *find_kernel(spec.kernel);
  FieldEquationResult result =
      kernel.run(spec, backend, fresh_context(kernel, spec));
  FVF_REQUIRE_MSG(result.fabric.errors.empty(),
                  "fabric " << spec.kernel
                            << " failed: " << result.fabric.errors.front());
  return result;
}

}  // namespace fvf::api
