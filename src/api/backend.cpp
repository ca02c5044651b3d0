#include "api/backend.hpp"

#include "common/assert.hpp"

namespace fvf::api {

std::string_view backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::Wse:
      return "wse";
    case Backend::Gpusim:
      return "gpusim";
  }
  return "?";
}

std::string backend_name_list(std::string_view separator) {
  std::string list;
  for (usize b = 0; b < kBackendCount; ++b) {
    if (b > 0) {
      list += separator;
    }
    list += backend_name(static_cast<Backend>(b));
  }
  return list;
}

Backend parse_backend(std::string_view value) {
  for (usize b = 0; b < kBackendCount; ++b) {
    const Backend backend = static_cast<Backend>(b);
    if (value == backend_name(backend)) {
      return backend;
    }
  }
  FVF_FAIL("unknown backend '" << value << "' (registered backends: "
                                << backend_name_list() << ")");
}

}  // namespace fvf::api
