/// \file assert.hpp
/// \brief Contract-checking macros (Core Guidelines I.6 / E.12 style).
///
/// FVF_REQUIRE checks preconditions in every build type and throws
/// fvf::ContractViolation on failure; FVF_FAIL throws the same failure
/// unconditionally; FVF_ASSERT checks internal invariants and is
/// compiled out in NDEBUG builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace fvf {

/// Thrown when a precondition or invariant expressed via FVF_REQUIRE /
/// FVF_ASSERT does not hold.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line,
                                          const std::string& message) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!message.empty()) {
    os << " — " << message;
  }
  throw ContractViolation(os.str());
}

}  // namespace detail
}  // namespace fvf

#define FVF_REQUIRE(expr)                                                     \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::fvf::detail::contract_failure("precondition", #expr, __FILE__,        \
                                      __LINE__, std::string{});               \
    }                                                                         \
  } while (false)

#define FVF_REQUIRE_MSG(expr, msg)                                            \
  do {                                                                        \
    if (!(expr)) {                                                            \
      std::ostringstream fvf_require_os_;                                     \
      fvf_require_os_ << msg;                                                 \
      ::fvf::detail::contract_failure("precondition", #expr, __FILE__,        \
                                      __LINE__, fvf_require_os_.str());       \
    }                                                                         \
  } while (false)

/// The failure FVF_REQUIRE_MSG(false, msg) throws, on a path the compiler
/// knows does not return.
#define FVF_FAIL(msg)                                                         \
  do {                                                                        \
    std::ostringstream fvf_fail_os_;                                          \
    fvf_fail_os_ << msg;                                                      \
    ::fvf::detail::contract_failure("precondition", "false", __FILE__,        \
                                    __LINE__, fvf_fail_os_.str());            \
  } while (false)

#ifdef NDEBUG
#define FVF_ASSERT(expr) ((void)0)
#else
#define FVF_ASSERT(expr)                                                      \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::fvf::detail::contract_failure("invariant", #expr, __FILE__, __LINE__, \
                                      std::string{});                         \
    }                                                                         \
  } while (false)
#endif
