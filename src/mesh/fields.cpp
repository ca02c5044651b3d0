#include "mesh/fields.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "mesh/row_split.hpp"

namespace fvf::mesh {

Array3<f32> homogeneous_field(Extents3 extents, f32 value) {
  FVF_REQUIRE(value > 0.0f);
  return Array3<f32>(extents, value);
}

Array3<f32> layered_permeability(Extents3 extents, f32 min_value,
                                 f32 max_value, u64 seed) {
  FVF_REQUIRE(min_value > 0.0f && max_value >= min_value);
  Xoshiro256 rng(seed);
  const f64 log_min = std::log10(static_cast<f64>(min_value));
  const f64 log_max = std::log10(static_cast<f64>(max_value));

  Array3<f32> field(extents);
  for (i32 z = 0; z < extents.nz; ++z) {
    const f64 k = std::pow(10.0, rng.uniform(log_min, log_max));
    for (i32 y = 0; y < extents.ny; ++y) {
      for (i32 x = 0; x < extents.nx; ++x) {
        field(x, y, z) = static_cast<f32>(k);
      }
    }
  }
  return field;
}

namespace {

/// One pass of a 7-point box filter (self + six cardinal neighbors) with
/// clamped boundaries into `out`; preserves the mean of the field. Each
/// row reads only `in`, so the rows split freely.
void box_smooth(const Array3<f64>& in, Array3<f64>& out, RowSplit& rows) {
  const Extents3 ext = in.extents();
  rows.for_each_row([&](i32 y, i32 z) {
    const auto row = [&](i32 yy, i32 zz) {
      return &in[ext.linear(0, std::clamp(yy, 0, ext.ny - 1),
                            std::clamp(zz, 0, ext.nz - 1))];
    };
    const f64* self = row(y, z);
    const f64* south = row(y - 1, z);
    const f64* north = row(y + 1, z);
    const f64* below = row(y, z - 1);
    const f64* above = row(y, z + 1);
    f64* dst = &out[ext.linear(0, y, z)];
    for (i32 x = 0; x < ext.nx; ++x) {
      const f64 sum = self[x] + self[std::max(x - 1, 0)] +
                      self[std::min(x + 1, ext.nx - 1)] + south[x] +
                      north[x] + below[x] + above[x];
      dst[x] = sum / 7.0;
    }
  });
}

}  // namespace

Array3<f32> lognormal_permeability(Extents3 extents,
                                   const LognormalOptions& options) {
  FVF_REQUIRE(options.smoothing_passes >= 0);
  Xoshiro256 rng(options.seed);
  RowSplit rows(extents);

  // The random stream and the two sums below carry an order, so they
  // stay on this thread. The Box–Muller transform, the smoothing and the
  // exponent map are per cell, so they split over the rows.
  // Every array below is written in full before it is read.
  Array3<f64> noise(extents, kForOverwrite);
  {
    Array3<f64> spare(extents, kForOverwrite);
    for (i64 i = 0; i < noise.size(); ++i) {
      noise[i] = rng.normal_uniform();
      spare[i] = rng.uniform();
    }
    rows.for_each_row([&](i32 y, i32 z) {
      const i64 begin = extents.linear(0, y, z);
      for (i64 i = begin; i < begin + extents.nx; ++i) {
        noise[i] = Xoshiro256::box_muller(noise[i], spare[i]);
      }
    });
    for (int pass = 0; pass < options.smoothing_passes; ++pass) {
      box_smooth(noise, spare, rows);
      std::swap(noise, spare);
    }
  }

  // Smoothing shrinks the variance; rescale to the requested sigma.
  f64 mean = 0.0;
  for (i64 i = 0; i < noise.size(); ++i) {
    mean += noise[i];
  }
  mean /= static_cast<f64>(noise.size());
  f64 var = 0.0;
  for (i64 i = 0; i < noise.size(); ++i) {
    const f64 d = noise[i] - mean;
    var += d * d;
  }
  var /= static_cast<f64>(noise.size());
  const f64 scale = var > 0.0 ? options.log10_sigma / std::sqrt(var) : 0.0;

  Array3<f32> field(extents, kForOverwrite);
  rows.for_each_row([&](i32 y, i32 z) {
    const i64 begin = extents.linear(0, y, z);
    for (i64 i = begin; i < begin + extents.nx; ++i) {
      const f64 log10_k = options.log10_mean + scale * (noise[i] - mean);
      field[i] = static_cast<f32>(std::pow(10.0, log10_k));
    }
  });
  return field;
}

Array3<f32> channelized_permeability(Extents3 extents,
                                     const ChannelOptions& options) {
  FVF_REQUIRE(options.background > 0.0f && options.channel > 0.0f);
  FVF_REQUIRE(options.channels_per_layer >= 1);
  FVF_REQUIRE(options.half_width_cells > 0.0);
  Xoshiro256 rng(options.seed);

  Array3<f32> field(extents, options.background);
  for (i32 z = 0; z < extents.nz; ++z) {
    for (i32 c = 0; c < options.channels_per_layer; ++c) {
      // One meandering centreline: y(x) = y0 + A sin(2 pi f x/nx + phi).
      const f64 y0 = rng.uniform(0.0, static_cast<f64>(extents.ny - 1));
      const f64 amplitude =
          options.amplitude_fraction * static_cast<f64>(extents.ny);
      const f64 frequency = rng.uniform(0.5, 2.0);
      const f64 phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      for (i32 x = 0; x < extents.nx; ++x) {
        const f64 centre =
            y0 + amplitude *
                     std::sin(2.0 * std::numbers::pi * frequency *
                                  static_cast<f64>(x) /
                                  std::max(1, extents.nx - 1) +
                              phase);
        for (i32 y = 0; y < extents.ny; ++y) {
          if (std::abs(static_cast<f64>(y) - centre) <=
              options.half_width_cells) {
            field(x, y, z) = options.channel;
          }
        }
      }
    }
  }
  return field;
}

Array3<f32> hydrostatic_pressure(const CartesianMesh& mesh,
                                 const PressureFieldOptions& options) {
  const Extents3 ext = mesh.extents();
  Xoshiro256 rng(options.seed);
  // Reference elevation: top layer, ignoring topography so columns with a
  // structural high end up slightly over-pressured, as in a real trap.
  const f64 top_elevation = mesh.layer_elevation(ext.nz - 1);

  Array3<f32> pressure(ext);
  for (i32 z = 0; z < ext.nz; ++z) {
    for (i32 y = 0; y < ext.ny; ++y) {
      for (i32 x = 0; x < ext.nx; ++x) {
        const f64 head = options.reference_density * units::kGravity *
                         (top_elevation - mesh.elevation(x, y, z));
        const f64 noise = options.perturbation * rng.uniform(-1.0, 1.0);
        pressure(x, y, z) =
            static_cast<f32>(options.top_pressure + head + noise);
      }
    }
  }
  return pressure;
}

Array3<f32> iteration_pressure(const CartesianMesh& mesh,
                               const PressureFieldOptions& options,
                               i32 iteration) {
  Array3<f32> pressure = hydrostatic_pressure(mesh, options);
  for (i32 it = 0; it < iteration; ++it) {
    advance_pressure(pressure.span(), it);
  }
  return pressure;
}

void advance_pressure(Span3<f32> pressure, i32 iteration) {
  // A cheap, strictly deterministic update: a smooth additive bump whose
  // phase depends on the iteration index. Keeps every pressure vector
  // distinct across the 1000 applications of Algorithm 1 without
  // host<->device traffic, matching the paper's measurement protocol of
  // timing device-side work only.
  const i64 n = pressure.size();
  f32* data = pressure.data();
  for (i64 i = 0; i < n; ++i) {
    data[i] += pressure_bump(i, iteration);
  }
}

}  // namespace fvf::mesh
