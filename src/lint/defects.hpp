/// \file defects.hpp
/// \brief Seeded defect corpus: one deliberately broken fabric fixture per
///        lint diagnostic class.
///
/// The corpus is the linter's own regression suite — each fixture plants
/// exactly one defect and the tests (and `fvf_lint --defect-corpus`)
/// assert that linting it yields exactly the expected diagnostic class,
/// and nothing else. A linter that stops flagging a corpus entry is
/// broken, whatever the shipped programs say.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "lint/lint.hpp"

namespace fvf::lint {

/// Receives a fixture's loaded fabric and the options it is linted with.
using FixtureVisitor =
    std::function<Report(const wse::Fabric&, const Options&)>;

/// One broken fixture.
struct Defect {
  /// Slug of the seeded defect; equals check_name(expected).
  std::string_view name;
  /// The diagnostic class this fixture must trigger.
  Check expected;
  /// What is broken, for CLI output and test failure messages.
  std::string_view description;
  /// Constructs the defective fabric from scratch and returns what
  /// `visit` reports on it (tests inspect the fabric itself this way).
  std::function<Report(const FixtureVisitor&)> load;

  /// Lints the fixture: load(lint::run).
  [[nodiscard]] Report lint() const { return load(run); }
};

/// The full corpus, one entry per diagnostic class, in Check enum order.
[[nodiscard]] const std::vector<Defect>& defect_corpus();

}  // namespace fvf::lint
