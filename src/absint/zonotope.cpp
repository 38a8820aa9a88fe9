#include "absint/zonotope.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "absint/bound_backend.hpp"
#include "nn/dense.hpp"

namespace ranm {
namespace {

/// The rounding radii r_j + k·u·m_j, rounded up, after a transfer that
/// rounds its centre `c` and generators `gens` (neuron-major) to float:
/// r_j = |s_j|·e_j (`s` empty: e_j) carries the input radius over, and
/// m_j = |c_j| + Σ_i |g_ij| + r_j + |b_j|, with b_j row j's bias (`b`: one
/// per run of rows / b.size() rows, or empty). An elementwise map
/// y_j = s_j·x_j + t_j computed in double takes k = 4: m_j bounds |y_j|
/// over the set, the forward pass rounds y_j at most twice and storing the
/// centre and each generator rounds once more, each within u·m_j, and 4u
/// covers these and the transfer's own double roundings. The affine
/// transfers take k = 5 (zonotope.hpp).
std::vector<float> grown_radii(const std::vector<float>& c,
                               const std::vector<float>& gens,
                               std::span<const double> s,
                               std::span<const float> e, double k,
                               std::span<const float> b = {}) {
  const std::size_t d = c.size();
  const std::size_t ng = d == 0 ? 0 : gens.size() / d;
  std::vector<float> err(d);
  for (std::size_t j = 0; j < d; ++j) {
    const double r = s.empty() ? double(e[j]) : std::fabs(s[j]) * e[j];
    double m = std::fabs(c[j]) + r;
    for (std::size_t i = 0; i < ng; ++i) m += std::fabs(gens[j * ng + i]);
    if (!b.empty()) m += std::fabs(b[j / (d / b.size())]);
    err[j] = round_up(r + k * kFloatUnitRoundoff * m);
  }
  return err;
}

}  // namespace

Zonotope::Zonotope(std::vector<float> center, std::vector<float> gens,
                   std::vector<float> rounding)
    : center_(std::move(center)),
      gens_(std::move(gens)),
      err_(std::move(rounding)) {
  if (!center_.empty() && gens_.size() % center_.size() != 0) {
    throw std::invalid_argument(
        "Zonotope: generator storage size not a multiple of dimension");
  }
  if (err_.empty()) {
    err_.assign(center_.size(), 0.0F);
  } else if (err_.size() != center_.size()) {
    throw std::invalid_argument("Zonotope: rounding size mismatch");
  }
}

Zonotope Zonotope::from_point(std::span<const float> c) {
  return Zonotope(std::vector<float>(c.begin(), c.end()), {});
}

Zonotope Zonotope::linf_ball(std::span<const float> c, float delta) {
  if (!(delta >= 0.0F) || !std::isfinite(delta)) {
    throw std::invalid_argument(
        "Zonotope::linf_ball: delta must be finite and >= 0");
  }
  const std::size_t d = c.size();
  std::vector<float> gens(d * d, 0.0F);
  for (std::size_t i = 0; i < d; ++i) gens[i * d + i] = delta;
  return Zonotope(std::vector<float>(c.begin(), c.end()), std::move(gens));
}

Zonotope Zonotope::from_box(const IntervalVector& box) {
  const std::size_t d = box.size();
  std::vector<float> c(d), gens, err(d);
  std::vector<std::size_t> nondeg;
  for (std::size_t j = 0; j < d; ++j) {
    const float r = box[j].radius();
    c[j] = box[j].center();
    if (r > 0.0F) nondeg.push_back(j);
    // The float centre and radius can round so that c ± r misses an
    // endpoint; the rounding radius covers the miss.
    const double miss = std::max(double(box[j].hi) - (double(c[j]) + r),
                                 (double(c[j]) - r) - double(box[j].lo));
    err[j] = miss > 0.0 ? round_up(miss) : 0.0F;
  }
  const std::size_t ng = nondeg.size();
  gens.assign(d * ng, 0.0F);
  for (std::size_t i = 0; i < ng; ++i) {
    gens[nondeg[i] * ng + i] = box[nondeg[i]].radius();
  }
  return Zonotope(std::move(c), std::move(gens), std::move(err));
}

std::vector<float> Zonotope::generator(std::size_t i) const {
  const std::size_t ng = num_generators();
  if (i >= ng) {
    throw std::out_of_range("Zonotope::generator");
  }
  std::vector<float> g(dim());
  for (std::size_t j = 0; j < dim(); ++j) g[j] = gens_[j * ng + i];
  return g;
}

BoxBatch Zonotope::radius_box() const {
  BoxBatch box(dim(), 1);
  for (std::size_t j = 0; j < dim(); ++j) {
    box.lo(j, 0) = -err_[j];
    box.hi(j, 0) = err_[j];
  }
  return box;
}

Interval Zonotope::concretize(std::size_t j) const noexcept {
  const std::size_t ng = num_generators();
  double r = err_[j];
  for (std::size_t i = 0; i < ng; ++i) r += std::fabs(gens_[j * ng + i]);
  return Interval::make_unchecked(round_down(double(center_[j]) - r),
                                  round_up(double(center_[j]) + r));
}

IntervalVector Zonotope::to_box() const {
  std::vector<Interval> ivs(dim());
  for (std::size_t j = 0; j < dim(); ++j) ivs[j] = concretize(j);
  return IntervalVector(std::move(ivs));
}

Zonotope Zonotope::affine(std::span<const float> w, std::size_t rows,
                          std::span<const float> b) const {
  const std::size_t d = dim();
  if (w.size() != rows * d) {
    throw std::invalid_argument("Zonotope::affine: weight size mismatch");
  }
  if (b.size() != rows) {
    throw std::invalid_argument("Zonotope::affine: bias size mismatch");
  }
  const std::size_t ng = num_generators();
  const std::vector<float> zero(rows, 0.0F);
  std::vector<float> centre(rows), gens(rows * ng);
  dense_forward(w.data(), b.data(), rows, d, center_.data(), centre.data(), 1);
  dense_forward(w.data(), zero.data(), rows, d, gens_.data(), gens.data(), ng);
  BoxBatch err;
  VectorizedBoundBackend{}.affine(w, rows, d, zero, radius_box(), err);
  return affine_image(std::move(centre), std::move(gens),
                      err.upper().storage(), b);
}

Zonotope Zonotope::affine_image(std::vector<float> centre,
                                std::vector<float> gens,
                                std::span<const float> abs_err,
                                std::span<const float> b) {
  if (abs_err.size() != centre.size() ||
      (!b.empty() && centre.size() % b.size() != 0)) {
    throw std::invalid_argument("Zonotope::affine_image: size mismatch");
  }
  std::vector<float> err = grown_radii(centre, gens, {}, abs_err, 5.0, b);
  return Zonotope(std::move(centre), std::move(gens), std::move(err));
}

Zonotope Zonotope::normalize(std::span<const float> mean,
                             std::span<const float> scale) const {
  const std::size_t d = dim();
  if (mean.size() != d || scale.size() != d) {
    throw std::invalid_argument("Zonotope::normalize: size mismatch");
  }
  const std::vector<double> s(scale.begin(), scale.end());
  const std::size_t ng = num_generators();
  std::vector<float> c(d), gens(gens_.size());
  for (std::size_t j = 0; j < d; ++j) {
    c[j] = static_cast<float>((double(center_[j]) - mean[j]) * s[j]);
    for (std::size_t i = 0; i < ng; ++i) {
      gens[j * ng + i] = static_cast<float>(gens_[j * ng + i] * s[j]);
    }
  }
  std::vector<float> err = grown_radii(c, gens, s, err_, 4.0);
  return Zonotope(std::move(c), std::move(gens), std::move(err));
}

Zonotope Zonotope::relu() const { return leaky_relu(0.0F); }

Zonotope Zonotope::leaky_relu(float alpha) const {
  const std::size_t d = dim();
  const std::size_t ng = num_generators();

  // Per-dimension plan, in double: pass-through (slope 1), kill (slope
  // alpha), or relax with slope lambda and fresh noise.
  std::vector<double> slope(d, 1.0), shift(d, 0.0);
  std::vector<float> fresh(d, 0.0F);
  for (std::size_t j = 0; j < d; ++j) {
    const Interval iv = concretize(j);
    const double l = iv.lo, u = iv.hi;
    if (l >= 0.0) {
      slope[j] = 1.0;
    } else if (u <= 0.0) {
      slope[j] = alpha;
    } else {
      // Minimal-area relaxation of max(alpha*x, x) over [l, u]:
      // lambda = (u - alpha*l) / (u - l); the relaxation band has height
      // (lambda - alpha) * (-l) at x = l (equivalently (1-lambda)*u at u),
      // centred by mu with radius mu as the fresh-noise coefficient.
      const double lambda = (u - alpha * l) / (u - l);
      const double mu = 0.5 * (lambda - alpha) * (-l);
      slope[j] = lambda;
      shift[j] = mu;
      fresh[j] = round_up(mu);
    }
  }

  std::size_t n_fresh = 0;
  for (std::size_t j = 0; j < d; ++j) {
    if (fresh[j] > 0.0F) ++n_fresh;
  }

  // Row j: the input generators scaled by the slope, then the fresh
  // generators, of which at most one (dimension j's own) is nonzero.
  const std::size_t out_ng = ng + n_fresh;
  std::vector<float> c(d), gens(d * out_ng, 0.0F);
  std::size_t next = ng;
  for (std::size_t j = 0; j < d; ++j) {
    c[j] = static_cast<float>(center_[j] * slope[j] + shift[j]);
    const float* in = gens_.data() + j * ng;
    float* out = gens.data() + j * out_ng;
    for (std::size_t i = 0; i < ng; ++i) {
      out[i] = static_cast<float>(in[i] * slope[j]);
    }
    if (fresh[j] > 0.0F) out[next++] = fresh[j];
  }
  std::vector<float> err = grown_radii(c, gens, slope, err_, 4.0);
  return Zonotope(std::move(c), std::move(gens), std::move(err));
}

Zonotope Zonotope::monotone_via_box(Interval (*f)(const Interval&)) const {
  const IntervalVector box = to_box();
  std::vector<Interval> image(box.size());
  for (std::size_t j = 0; j < box.size(); ++j) image[j] = f(box[j]);
  return from_box(IntervalVector(std::move(image)));
}

}  // namespace ranm
