#include "absint/zonotope.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ranm {
namespace {

/// The rounding radii after an elementwise map y_j = s_j·x_j + t_j whose
/// centre `c` and generators `gens` were computed in double and rounded to
/// float once: the radii `e` scaled by |s_j| and grown by 4u·m_j, rounded
/// up, where m_j = |c_j| + Σ_i |g_ij| + |s_j|·e_j bounds |y_j| over the
/// set. The forward pass rounds y_j at most twice and storing the centre
/// and each generator rounds once more, each within u·m_j; 4u covers these
/// and the transfer's own double roundings.
std::vector<float> elementwise_radii(const std::vector<float>& c,
                                     const std::vector<float>& gens,
                                     std::span<const double> scale,
                                     std::span<const float> e) {
  const std::size_t d = c.size();
  std::vector<double> scaled(d), m(d);
  for (std::size_t j = 0; j < d; ++j) {
    scaled[j] = std::fabs(scale[j]) * e[j];
    m[j] = std::fabs(c[j]) + scaled[j];
  }
  for (std::size_t g = 0; g < gens.size(); g += d) {
    for (std::size_t j = 0; j < d; ++j) m[j] += std::fabs(gens[g + j]);
  }
  std::vector<float> err(d);
  for (std::size_t j = 0; j < d; ++j) {
    err[j] = round_up(scaled[j] + 4.0 * kFloatUnitRoundoff * m[j]);
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
  gens.assign(nondeg.size() * d, 0.0F);
  for (std::size_t i = 0; i < nondeg.size(); ++i) {
    gens[i * d + nondeg[i]] = box[nondeg[i]].radius();
  }
  return Zonotope(std::move(c), std::move(gens), std::move(err));
}

std::span<const float> Zonotope::generator(std::size_t i) const {
  if (i >= num_generators()) {
    throw std::out_of_range("Zonotope::generator");
  }
  return {gens_.data() + i * dim(), dim()};
}

Interval Zonotope::concretize(std::size_t j) const noexcept {
  const std::size_t d = dim();
  double r = err_[j];
  for (std::size_t i = 0; i < num_generators(); ++i) {
    r += std::fabs(gens_[i * d + j]);
  }
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
  return linear(rows, b, [&](const float* x, double* y, bool absolute) {
    for (std::size_t r = 0; r < rows; ++r) {
      const float* wrow = w.data() + r * d;
      double acc = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        const double wv = absolute ? std::fabs(wrow[j]) : wrow[j];
        acc += wv * x[j];
      }
      y[r] = acc;
    }
  });
}

Zonotope Zonotope::linear(std::size_t rows, std::span<const float> b,
                          const LinearMap& map) const {
  if (!b.empty() && b.size() != rows) {
    throw std::invalid_argument("Zonotope::linear: bias size mismatch");
  }
  const std::size_t ng = num_generators();
  std::vector<double> acc(rows), centre(rows), gen_sum(rows, 0.0),
      err_in(rows);
  map(center_.data(), centre.data(), false);
  map(err_.data(), err_in.data(), true);
  std::vector<float> gens(ng * rows);
  for (std::size_t i = 0; i < ng; ++i) {
    map(gens_.data() + i * dim(), acc.data(), false);
    float* out = gens.data() + i * rows;
    for (std::size_t r = 0; r < rows; ++r) {
      out[r] = static_cast<float>(acc[r]);
      gen_sum[r] += std::fabs(acc[r]);
    }
  }
  std::vector<float> c(rows), err(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double bias = b.empty() ? 0.0 : double(b[r]);
    c[r] = static_cast<float>(centre[r] + bias);
    // |A x| <= m over the set. The forward pass rounds A x to float and
    // then rounds its bias add (or scale), each within u·(m + |b|); storing
    // the centre and generators as floats rounds them within u·(m + |b|)
    // together. 4u covers these three and their second-order terms.
    const double m = std::fabs(centre[r]) + gen_sum[r] + err_in[r];
    err[r] = round_up(err_in[r] +
                      4.0 * kFloatUnitRoundoff * (m + std::fabs(bias)));
  }
  return Zonotope(std::move(c), std::move(gens), std::move(err));
}

Zonotope Zonotope::normalize(std::span<const float> mean,
                             std::span<const float> scale) const {
  const std::size_t d = dim();
  if (mean.size() != d || scale.size() != d) {
    throw std::invalid_argument("Zonotope::normalize: size mismatch");
  }
  const std::vector<double> s(scale.begin(), scale.end());
  std::vector<float> c(d), gens(gens_.size());
  for (std::size_t j = 0; j < d; ++j) {
    c[j] = static_cast<float>((double(center_[j]) - mean[j]) * s[j]);
  }
  for (std::size_t i = 0; i < num_generators(); ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      gens[i * d + j] = static_cast<float>(gens_[i * d + j] * s[j]);
    }
  }
  std::vector<float> err = elementwise_radii(c, gens, s, err_);
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

  std::vector<float> c(d), gens((ng + n_fresh) * d, 0.0F);
  for (std::size_t j = 0; j < d; ++j) {
    c[j] = static_cast<float>(center_[j] * slope[j] + shift[j]);
  }
  for (std::size_t i = 0; i < ng; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      gens[i * d + j] = static_cast<float>(gens_[i * d + j] * slope[j]);
    }
  }
  std::size_t next = ng;
  for (std::size_t j = 0; j < d; ++j) {
    if (fresh[j] > 0.0F) {
      gens[next * d + j] = fresh[j];
      ++next;
    }
  }
  std::vector<float> err = elementwise_radii(c, gens, slope, err_);
  return Zonotope(std::move(c), std::move(gens), std::move(err));
}

Zonotope Zonotope::monotone_via_box(Interval (*f)(const Interval&)) const {
  const IntervalVector box = to_box();
  std::vector<Interval> image(box.size());
  for (std::size_t j = 0; j < box.size(); ++j) image[j] = f(box[j]);
  return from_box(IntervalVector(std::move(image)));
}

Zonotope Zonotope::reduced(float eps) const {
  const std::size_t d = dim();
  const std::size_t ng = num_generators();
  std::vector<bool> keep(ng, true);
  std::vector<float> slack(d, 0.0F);
  for (std::size_t i = 0; i < ng; ++i) {
    double mag = 0.0;
    for (std::size_t j = 0; j < d; ++j) mag += std::fabs(gens_[i * d + j]);
    if (mag < eps) {
      keep[i] = false;
      for (std::size_t j = 0; j < d; ++j) {
        slack[j] += std::fabs(gens_[i * d + j]);
      }
    }
  }
  std::vector<float> gens;
  for (std::size_t i = 0; i < ng; ++i) {
    if (keep[i]) {
      gens.insert(gens.end(), gens_.begin() + i * d,
                  gens_.begin() + (i + 1) * d);
    }
  }
  // One box generator per dimension that lost mass.
  for (std::size_t j = 0; j < d; ++j) {
    if (slack[j] > 0.0F) {
      std::vector<float> g(d, 0.0F);
      g[j] = slack[j];
      gens.insert(gens.end(), g.begin(), g.end());
    }
  }
  return Zonotope(center_, std::move(gens), err_);
}

}  // namespace ranm
