#include "spec/compile.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace fvf::spec {

namespace {

[[noreturn]] void compile_error(const StencilSpec& spec,
                                const std::string& detail) {
  throw ContractViolation("spec::compile: spec '" + spec.name + "': " +
                          detail);
}

const char* role_name(FieldRole role) {
  switch (role) {
    case FieldRole::State:
      return "state";
    case FieldRole::Code:
      return "code";
    case FieldRole::CardinalRecv:
      return "cardinal-recv";
    case FieldRole::DiagonalRecv:
      return "diagonal-recv";
    case FieldRole::HaloRecv:
      return "halo-recv";
  }
  return "?";
}

const char* exchange_name(ExchangeKind kind) {
  switch (kind) {
    case ExchangeKind::None:
      return "none";
    case ExchangeKind::SwitchProtocol:
      return "switch-protocol";
    case ExchangeKind::StaticHalo:
      return "static-halo";
  }
  return "?";
}

void validate(const StencilSpec& spec) {
  if (spec.name.empty()) {
    throw ContractViolation("spec::compile: spec has no name");
  }
  if (spec.block_words_per_cell < 1 &&
      spec.exchange != ExchangeKind::None) {
    compile_error(spec, "block_words_per_cell must be >= 1");
  }
  if (spec.exchange == ExchangeKind::StaticHalo &&
      spec.shape != StencilShape::NinePoint) {
    compile_error(spec,
                  "the static-halo exchange always serves all ten "
                  "neighbors; declare shape = NinePoint");
  }
  if (spec.reduction) {
    if (spec.exchange != ExchangeKind::StaticHalo) {
      compile_error(spec,
                    "reduction phase requires the static-halo exchange");
    }
    if (spec.reduction->length != 1) {
      compile_error(spec,
                    "reduction phase: only length-1 reductions are "
                    "supported");
    }
  }

  const FieldSpec* code = nullptr;
  const FieldSpec* cardinal_recv = nullptr;
  const FieldSpec* diagonal_recv = nullptr;
  const FieldSpec* halo_recv = nullptr;
  for (const FieldSpec& field : spec.fields) {
    if (field.name.empty()) {
      compile_error(spec, "every field needs a name (role " +
                              std::string(role_name(field.role)) +
                              " field declared without one)");
    }
    for (const FieldSpec& other : spec.fields) {
      if (&other != &field && other.name == field.name) {
        compile_error(spec, "duplicate field '" + field.name + "'");
      }
    }
    if (field.role == FieldRole::Code) {
      if (field.bytes == 0) {
        compile_error(spec, "code field '" + field.name +
                                "' must declare a byte footprint");
      }
      if (code != nullptr) {
        compile_error(spec, "second code field '" + field.name +
                                "' (already have '" + code->name + "')");
      }
      code = &field;
      continue;
    }
    if (field.words_per_cell < 1) {
      compile_error(spec, "field '" + field.name +
                              "' must declare words_per_cell >= 1");
    }
    if (field.bytes != 0) {
      compile_error(spec, "field '" + field.name +
                              "': bytes is reserved for the code field");
    }
    const auto claim_unique = [&](const FieldSpec*& slot,
                                  ExchangeKind needs) {
      if (spec.exchange != needs) {
        compile_error(spec, "field '" + field.name + "' (role " +
                                role_name(field.role) +
                                ") requires the " +
                                std::string(exchange_name(needs)) +
                                " exchange");
      }
      if (slot != nullptr) {
        compile_error(spec, "second " +
                                std::string(role_name(field.role)) +
                                " field '" + field.name +
                                "' (already have '" + slot->name + "')");
      }
      slot = &field;
    };
    switch (field.role) {
      case FieldRole::CardinalRecv:
        claim_unique(cardinal_recv, ExchangeKind::SwitchProtocol);
        break;
      case FieldRole::DiagonalRecv:
        claim_unique(diagonal_recv, ExchangeKind::SwitchProtocol);
        break;
      case FieldRole::HaloRecv:
        claim_unique(halo_recv, ExchangeKind::StaticHalo);
        break;
      default:
        break;
    }
  }

  const auto check_recv = [&](const FieldSpec* field, const char* what,
                              i32 buffers) {
    if (field == nullptr) {
      compile_error(spec, std::string("missing ") + what +
                              " receive-buffer field");
    }
    const i32 expected = buffers * spec.block_words_per_cell;
    if (field->words_per_cell != expected) {
      std::ostringstream os;
      os << "field '" << field->name << "' must hold " << buffers << " x "
         << spec.block_words_per_cell << " = " << expected
         << " words per cell (declares " << field->words_per_cell << ")";
      compile_error(spec, os.str());
    }
  };
  if (spec.exchange == ExchangeKind::SwitchProtocol) {
    check_recv(cardinal_recv, "cardinal", 4);
    // The diagonal buffers stay allocated even in the 5-point ablation
    // (the layout is shape-independent), so they are required either way.
    check_recv(diagonal_recv, "diagonal", 4);
  }
  if (spec.exchange == ExchangeKind::StaticHalo) {
    check_recv(halo_recv, "halo", 8);
  }
}

}  // namespace

CompiledSpec::Claims CompiledSpec::claim_colors(dataflow::ColorPlan& plan,
                                                bool reliability) const {
  Claims claims;
  switch (spec_.exchange) {
    case ExchangeKind::None:
      break;
    case ExchangeKind::SwitchProtocol:
      (void)plan.claim_cardinal(spec_.claims.cardinal);
      if (nine_point()) {
        (void)plan.claim_diagonal(spec_.claims.diagonal);
      }
      break;
    case ExchangeKind::StaticHalo:
      (void)plan.claim_cardinal(spec_.claims.cardinal);
      (void)plan.claim_diagonal(spec_.claims.diagonal);
      if (spec_.reduction) {
        claims.reduce = plan.claim_allreduce(spec_.claims.allreduce);
      }
      if (reliability) {
        (void)plan.claim_nack(spec_.claims.nack);
      }
      break;
  }
  return claims;
}

usize CompiledSpec::data_footprint_bytes(i32 nz) const noexcept {
  usize words = 0;
  for (const FieldSpec& field : spec_.fields) {
    if (field.role != FieldRole::Code) {
      words += static_cast<usize>(field.words_per_cell) *
               static_cast<usize>(nz);
    }
  }
  return words * sizeof(f32);
}

usize CompiledSpec::code_footprint_bytes() const noexcept {
  usize bytes = 0;
  for (const FieldSpec& field : spec_.fields) {
    if (field.role == FieldRole::Code) {
      bytes += field.bytes;
    }
  }
  return bytes;
}

std::string CompiledSpec::describe() const {
  std::ostringstream os;
  os << "spec '" << spec_.name << "': exchange=" << exchange_name(spec_.exchange)
     << " shape=" << (nine_point() ? "9-point" : "5-point")
     << " block=" << spec_.block_words_per_cell << " words/cell";
  if (spec_.reduction) {
    os << " reduction="
       << (spec_.reduction->op == wse::ReduceOp::Min   ? "min"
           : spec_.reduction->op == wse::ReduceOp::Max ? "max"
                                                       : "sum")
       << "[" << spec_.reduction->length << "]";
  }
  os << "\n";
  for (const FieldSpec& field : spec_.fields) {
    os << "  field '" << field.name << "' (" << role_name(field.role)
       << "): ";
    if (field.role == FieldRole::Code) {
      os << field.bytes << " bytes";
    } else {
      os << field.words_per_cell << " words/cell";
    }
    os << "\n";
  }
  return os.str();
}

CompiledSpec compile(StencilSpec spec) {
  validate(spec);

  CompiledSpec compiled;
  u64 digest = fnv1a(spec.name);
  digest = fnv1a_mix(digest, static_cast<u64>(spec.exchange));
  digest = fnv1a_mix(digest, static_cast<u64>(spec.shape));
  digest = fnv1a_mix(digest, static_cast<u64>(spec.block_words_per_cell));
  digest = fnv1a_mix(digest, spec.reduction ? 1u : 0u);
  digest = fnv1a_mix(digest, spec.defects.drop_east_data_handler ? 1u : 0u);
  for (const FieldSpec& field : spec.fields) {
    digest = fnv1a(field.name, digest);
    digest = fnv1a_mix(digest, static_cast<u64>(field.role));
    digest = fnv1a_mix(digest, static_cast<u64>(field.words_per_cell));
    digest = fnv1a_mix(digest, field.bytes);
  }
  compiled.digest_ = digest;
  compiled.spec_ = std::move(spec);
  return compiled;
}

}  // namespace fvf::spec
