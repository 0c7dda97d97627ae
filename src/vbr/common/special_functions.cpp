#include "vbr/common/special_functions.hpp"

#include <cmath>
#include <limits>

#include "vbr/common/error.hpp"

namespace vbr {
namespace {

// std::lgamma writes the process-global `signgam`, so concurrent callers
// race on it (ThreadSanitizer flags the parallel generation engine through
// the Gamma quantile path). Every caller here has x > 0, where the sign is
// always +1, so the reentrant lgamma_r is a drop-in replacement.
double lgamma_safe(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double log_gamma(double x) {
  VBR_ENSURE(x > 0.0, "log_gamma requires x > 0");
  return lgamma_safe(x);
}

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = std::numeric_limits<double>::epsilon();
constexpr double kTiny = std::numeric_limits<double>::min() / kEpsilon;

// Lower incomplete gamma by power series: P(s,x) converges fast for x < s+1.
double gamma_p_series(double s, double x) {
  double term = 1.0 / s;
  double sum = term;
  double a = s;
  for (int i = 0; i < kMaxIterations; ++i) {
    a += 1.0;
    term *= x / a;
    sum += term;
    if (std::abs(term) < std::abs(sum) * kEpsilon) {
      return sum * std::exp(-x + s * std::log(x) - lgamma_safe(s));
    }
  }
  throw NumericalError("gamma_p series failed to converge");
}

// Upper incomplete gamma by Lentz continued fraction: Q(s,x) for x >= s+1.
double upper_gamma_cf(double s, double x) {
  double b = x + 1.0 - s;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - s);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) {
      return h * std::exp(-x + s * std::log(x) - lgamma_safe(s));
    }
  }
  throw NumericalError("upper incomplete gamma continued fraction failed to converge");
}

}  // namespace

double gamma_p(double s, double x) {
  VBR_ENSURE(s > 0.0, "gamma_p requires s > 0");
  VBR_ENSURE(x >= 0.0, "gamma_p requires x >= 0");
  if (x == 0.0) return 0.0;
  if (x < s + 1.0) return gamma_p_series(s, x);
  return 1.0 - upper_gamma_cf(s, x);
}

double gamma_p_inverse(double s, double p) {
  VBR_ENSURE(s > 0.0, "gamma_p_inverse requires s > 0");
  VBR_ENSURE(p >= 0.0 && p < 1.0, "gamma_p_inverse requires p in [0, 1)");
  if (p == 0.0) return 0.0;

  // Initial guess (Numerical Recipes / AS 26.4.17): Wilson-Hilferty for s > 1,
  // small-s expansion otherwise.
  const double gln = lgamma_safe(s);
  double x = 0.0;
  if (s > 1.0) {
    const double z = normal_quantile(p);
    const double t = 1.0 - 1.0 / (9.0 * s) + z / (3.0 * std::sqrt(s));
    x = s * t * t * t;
    if (x <= 0.0) x = 1e-8;
  } else {
    const double t = 1.0 - s * (0.253 + s * 0.12);
    if (p < t) {
      x = std::pow(p / t, 1.0 / s);
    } else {
      x = 1.0 - std::log(1.0 - (p - t) / (1.0 - t));
    }
  }

  // Halley iteration on f(x) = P(s, x) - p; converge on the residual in
  // probability space so tiny quantiles (where x is small but P is steep in
  // relative terms) are still resolved to full relative precision.
  for (int i = 0; i < 200; ++i) {
    if (x <= 0.0) x = 0.5 * (x + 1e-300);  // keep in domain
    const double err = gamma_p(s, x) - p;
    if (std::abs(err) <= 1e-13 * p) break;
    const double logpdf = -x + (s - 1.0) * std::log(x) - gln;
    const double pdf = std::exp(logpdf);
    if (pdf <= 0.0) {
      // Flat region: fall back to bisection-style nudge.
      x *= (err > 0.0) ? 0.5 : 2.0;
      continue;
    }
    double step = err / pdf;
    // Halley correction.
    step /= std::max(0.5, 1.0 - 0.5 * step * ((s - 1.0) / x - 1.0));
    const double x_new = x - step;
    x = (x_new <= 0.0) ? 0.5 * x : x_new;
    if (std::abs(step) < 1e-15 * std::max(1.0, x)) break;
  }
  return x;
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_quantile(double p) {
  VBR_ENSURE(p > 0.0 && p < 1.0, "normal_quantile requires p in (0, 1)");
  // Wichura's algorithm AS 241 (PPND16).
  const double q = p - 0.5;
  if (std::abs(q) <= 0.425) {
    const double r = 0.180625 - q * q;
    return q *
           (((((((2.5090809287301226727e+3 * r + 3.3430575583588128105e+4) * r +
                 6.7265770927008700853e+4) * r + 4.5921953931549871457e+4) * r +
               1.3731693765509461125e+4) * r + 1.9715909503065514427e+3) * r +
             1.3314166789178437745e+2) * r + 3.3871328727963666080e+0) /
           (((((((5.2264952788528545610e+3 * r + 2.8729085735721942674e+4) * r +
                 3.9307895800092710610e+4) * r + 2.1213794301586595867e+4) * r +
               5.3941960214247511077e+3) * r + 6.8718700749205790830e+2) * r +
             4.2313330701600911252e+1) * r + 1.0);
  }
  double r = (q < 0.0) ? p : 1.0 - p;
  r = std::sqrt(-std::log(r));
  double value = 0.0;
  if (r <= 5.0) {
    r -= 1.6;
    value = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r +
                  2.41780725177450611770e-1) * r + 1.27045825245236838258e+0) * r +
                3.64784832476320460504e+0) * r + 5.76949722146069140550e+0) * r +
              4.63033784615654529590e+0) * r + 1.42343711074968357734e+0) /
            (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r +
                  1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r +
                6.89767334985100004550e-1) * r + 1.67638483018380384940e+0) * r +
              2.05319162663775882187e+0) * r + 1.0);
  } else {
    r -= 5.0;
    value = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r +
                  1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r +
                2.96560571828504891230e-1) * r + 1.78482653991729133580e+0) * r +
              5.46378491116411436990e+0) * r + 6.65790464350110377720e+0) /
            (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r +
                  1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r +
                1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r +
              5.99832206555887937690e-1) * r + 1.0);
  }
  return (q < 0.0) ? -value : value;
}

}  // namespace vbr
