#include "serve/request.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "api/backend.hpp"
#include "common/assert.hpp"
#include "common/hash.hpp"

namespace fvf::serve {

std::string_view backend_choice_name(BackendChoice backend) noexcept {
  switch (backend) {
    case BackendChoice::Auto:
      return "auto";
    case BackendChoice::Wse:
      return api::backend_name(api::Backend::Wse);
    case BackendChoice::Gpusim:
      return api::backend_name(api::Backend::Gpusim);
  }
  return "?";
}

std::string_view priority_name(Priority priority) noexcept {
  switch (priority) {
    case Priority::Interactive:
      return "interactive";
    case Priority::Batch:
      return "batch";
    case Priority::Background:
      return "background";
  }
  return "?";
}

namespace {

/// Spelling normalization: dashes to underscores, then the documented
/// aliases onto the canonical field name.
std::string normalize_key(std::string_view raw) {
  std::string key(raw);
  for (char& c : key) {
    if (c == '-') {
      c = '_';
    }
  }
  if (key == "steps" || key == "windows" || key == "max_iterations") {
    return "iterations";
  }
  if (key == "tolerance") {
    return "tol";
  }
  if (key == "window" || key == "window_seconds" || key == "timestep") {
    return "dt";
  }
  if (key == "deadline") {
    return "deadline_ms";
  }
  return key;
}

i64 parse_i64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  FVF_REQUIRE_MSG(end != value.c_str() && *end == '\0' && errno == 0,
                  "request field '" << key << "' has non-integer value '"
                                    << value << "'");
  return static_cast<i64>(parsed);
}

i32 parse_i32(const std::string& key, const std::string& value) {
  const i64 parsed = parse_i64(key, value);
  FVF_REQUIRE_MSG(parsed >= std::numeric_limits<i32>::min() &&
                      parsed <= std::numeric_limits<i32>::max(),
                  "request field '" << key << "' = " << value
                                    << " is out of the 32-bit range");
  return static_cast<i32>(parsed);
}

u64 parse_u64(const std::string& key, const std::string& value) {
  const i64 parsed = parse_i64(key, value);
  FVF_REQUIRE_MSG(parsed >= 0, "request field '" << key << "' = " << value
                                                 << " must not be negative");
  return static_cast<u64>(parsed);
}

f64 parse_f64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const f64 parsed = std::strtod(value.c_str(), &end);
  FVF_REQUIRE_MSG(end != value.c_str() && *end == '\0' && errno == 0,
                  "request field '" << key << "' has non-numeric value '"
                                    << value << "'");
  FVF_REQUIRE_MSG(std::isfinite(parsed), "request field '"
                                             << key << "' = " << value
                                             << " must be finite");
  return parsed;
}

const api::Kernel* parse_program(const std::string& value) {
  const api::Kernel* kernel = api::find_kernel(value);
  FVF_REQUIRE_MSG(kernel != nullptr, "unknown program '"
                                         << value << "' (expected "
                                         << api::kernel_name_list() << ")");
  return kernel;
}

Priority parse_priority(const std::string& value) {
  if (value == "interactive" || value == "high") {
    return Priority::Interactive;
  }
  if (value == "batch" || value == "normal") {
    return Priority::Batch;
  }
  if (value == "background" || value == "low") {
    return Priority::Background;
  }
  FVF_FAIL("unknown priority '"
           << value << "' (expected interactive|batch|background)");
}

BackendChoice parse_backend_choice(const std::string& value) {
  if (value == "auto") {
    return BackendChoice::Auto;
  }
  if (value == api::backend_name(api::Backend::Wse)) {
    return BackendChoice::Wse;
  }
  if (value == api::backend_name(api::Backend::Gpusim)) {
    return BackendChoice::Gpusim;
  }
  FVF_FAIL("unknown backend '" << value << "' (expected auto|"
                                << api::backend_name_list() << ")");
}

lint::Level parse_lint(const std::string& value) {
  if (value == "off") {
    return lint::Level::Off;
  }
  if (value == "warn") {
    return lint::Level::Warn;
  }
  if (value == "strict") {
    return lint::Level::Strict;
  }
  FVF_FAIL("unknown lint level '" << value
                                   << "' (expected off|warn|strict)");
}

/// Canonical float spelling: shortest round-trippable decimal via %.17g
/// (the hash must not distinguish "1e-05" from "0.00001", so both are
/// parsed and re-printed the same way).
std::string canonical_f64(f64 value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The program's table defaults for the work-count and timestep fields,
/// applied after parsing so the canonical content never contains a 0
/// sentinel.
void apply_defaults(ScenarioRequest& request) {
  if (request.iterations == 0) {
    request.iterations = request.program->default_iterations;
  }
  if (request.backend == BackendChoice::Auto) {
    // Deterministic routing: background work runs on the executing GPU
    // backend, keeping the fabric free for interactive/batch requests.
    request.backend = request.priority == Priority::Background
                          ? BackendChoice::Gpusim
                          : BackendChoice::Wse;
  }
  if (request.dt == 0.0) {
    request.dt = request.program->default_dt;
  }
}

void validate(const ScenarioRequest& request) {
  FVF_REQUIRE_MSG(request.nx > 0 && request.ny > 0 && request.nz > 0,
                  "request extents must be positive ("
                      << request.nx << 'x' << request.ny << 'x' << request.nz
                      << ')');
  FVF_REQUIRE_MSG(request.iterations > 0, "request field 'iterations' = "
                                              << request.iterations
                                              << " must be positive");
  FVF_REQUIRE_MSG(request.dt > 0.0,
                  "request field 'dt' = " << request.dt << " must be positive");
  FVF_REQUIRE_MSG(request.tol > 0.0, "request field 'tol' = "
                                         << request.tol << " must be positive");
  FVF_REQUIRE_MSG(request.fault_rate >= 0.0 && request.fault_rate <= 1.0,
                  "request field 'fault_rate' = " << request.fault_rate
                                                  << " must be in [0, 1]");
  FVF_REQUIRE_MSG(request.threads >= 1, "request field 'threads' = "
                                            << request.threads
                                            << " must be >= 1");
  FVF_REQUIRE_MSG(request.checkpoint_every >= 0,
                  "request field 'checkpoint_every' = "
                      << request.checkpoint_every << " must be >= 0");
}

}  // namespace

ScenarioRequest parse_request(std::string_view line) {
  ScenarioRequest request;
  request.iterations = 0;  // 0 = resolve the program default below
  request.dt = 0.0;

  std::string text(line);
  for (char& c : text) {
    if (c == ',') {
      c = ' ';
    }
  }
  std::istringstream tokens(text);
  std::string token;
  while (tokens >> token) {
    if (token[0] == '#') {
      break;  // rest of the line is a comment
    }
    const usize eq = token.find('=');
    FVF_REQUIRE_MSG(eq != std::string::npos && eq > 0 && eq + 1 < token.size(),
                    "malformed request token '" << token
                                                << "' (expected key=value)");
    const std::string key = normalize_key(token.substr(0, eq));
    const std::string value = token.substr(eq + 1);

    if (key == "program") {
      request.program = parse_program(value);
    } else if (key == "backend") {
      request.backend = parse_backend_choice(value);
    } else if (key == "nx") {
      request.nx = parse_i32(key, value);
    } else if (key == "ny") {
      request.ny = parse_i32(key, value);
    } else if (key == "nz") {
      request.nz = parse_i32(key, value);
    } else if (key == "seed") {
      request.seed = parse_u64(key, value);
    } else if (key == "iterations") {
      request.iterations = parse_i32(key, value);
    } else if (key == "dt") {
      request.dt = parse_f64(key, value);
    } else if (key == "tol") {
      request.tol = parse_f64(key, value);
    } else if (key == "fault_seed") {
      request.fault_seed = parse_u64(key, value);
    } else if (key == "fault_rate") {
      request.fault_rate = parse_f64(key, value);
    } else if (key == "threads") {
      request.threads = parse_i32(key, value);
    } else if (key == "lint") {
      request.lint = parse_lint(value);
    } else if (key == "priority") {
      request.priority = parse_priority(value);
    } else if (key == "deadline_ms") {
      request.deadline_ms = parse_u64(key, value);
    } else if (key == "checkpoint_every") {
      request.checkpoint_every = parse_i32(key, value);
    } else {
      FVF_FAIL("unknown request field '" << key << "'");
    }
  }
  // Defaults resolve only once parsing is complete: the program token
  // may come before or after the fields it defaults, and order must not
  // matter.
  apply_defaults(request);
  validate(request);
  return request;
}

ScenarioRequest resolve_defaults(const ScenarioRequest& request) {
  ScenarioRequest resolved = request;
  apply_defaults(resolved);
  validate(resolved);
  return resolved;
}

std::string canonical_content(const ScenarioRequest& request) {
  const ScenarioRequest defaulted = resolve_defaults(request);
  std::ostringstream os;
  os << "backend=" << backend_choice_name(defaulted.backend)
     << " dt=" << canonical_f64(defaulted.dt)
     << " fault_rate=" << canonical_f64(defaulted.fault_rate)
     << " fault_seed=" << defaulted.fault_seed
     << " iterations=" << defaulted.iterations << " nx=" << defaulted.nx
     << " ny=" << defaulted.ny << " nz=" << defaulted.nz
     << " program=" << program_name(defaulted.program)
     << " seed=" << defaulted.seed << " tol=" << canonical_f64(defaulted.tol);
  return os.str();
}

u64 scenario_hash(const ScenarioRequest& request) {
  return fnv1a(canonical_content(request));
}

}  // namespace fvf::serve
