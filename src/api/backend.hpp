/// \file backend.hpp
/// \brief The backend inventory of the field-equation API: the simulated
///        wafer-scale engine (wse::) and the simulated GPU (gpusim::, run
///        by spec::execute). Every CLI that accepts --backend resolves
///        the value here, so an unknown spelling is rejected loudly with
///        the real inventory — the same contract
///        api::parse_program_flag enforces for --program.
#pragma once

#include <string>
#include <string_view>

#include "common/types.hpp"
#include "spec/execute.hpp"

namespace fvf::api {

/// An execution backend every table kernel runs on end to end: the two
/// drivers of a spec::Launch.
using spec::Backend;

inline constexpr usize kBackendCount = 2;

/// Canonical CLI/request spelling ("wse", "gpusim").
[[nodiscard]] std::string_view backend_name(Backend backend) noexcept;

/// "wse|gpusim" — for usage strings and error messages.
[[nodiscard]] std::string backend_name_list(std::string_view separator = "|");

/// Resolves a --backend value against the inventory. Throws
/// ContractViolation naming the offending value and every registered
/// backend on an unknown spelling.
[[nodiscard]] Backend parse_backend(std::string_view value);

}  // namespace fvf::api
