#include "chem/sto_fit.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/linalg.hpp"
#include "opt/nelder_mead.hpp"

namespace cafqa::chem {

namespace {

/** ln Gamma(l + 3/2) via repeated Gamma(x+1) = x Gamma(x). */
double
gamma_l_threehalf(int l)
{
    // Gamma(3/2) = sqrt(pi)/2, Gamma(x+1) = x*Gamma(x).
    double value = std::sqrt(M_PI) / 2.0;
    for (int k = 0; k < l; ++k) {
        value *= (k + 1.5);
    }
    return value;
}

double
factorial(int n)
{
    double value = 1.0;
    for (int k = 2; k <= n; ++k) {
        value *= k;
    }
    return value;
}

/** Normalization of the radial GTO r^l exp(-alpha r^2). */
double
gto_radial_norm(int l, double alpha)
{
    return std::sqrt(2.0 * std::pow(2.0 * alpha, l + 1.5) /
                     gamma_l_threehalf(l));
}

/** Normalization of the radial STO r^{n-1} exp(-zeta r), zeta = 1. */
double
sto_radial_norm(int n)
{
    return std::pow(2.0, n + 0.5) / std::sqrt(factorial(2 * n));
}

/** Analytic overlap between normalized radial GTOs of momentum l. */
double
gto_gto_overlap(int l, double a, double b)
{
    return gto_radial_norm(l, a) * gto_radial_norm(l, b) *
           gamma_l_threehalf(l) / (2.0 * std::pow(a + b, l + 1.5));
}

/** Composite Simpson integration of f on [lo, hi]. */
template <typename F>
double
simpson(F f, double lo, double hi, int intervals)
{
    const double h = (hi - lo) / intervals;
    double sum = f(lo) + f(hi);
    for (int i = 1; i < intervals; ++i) {
        sum += f(lo + i * h) * ((i % 2 == 1) ? 4.0 : 2.0);
    }
    return sum * h / 3.0;
}

} // namespace

double
sto_gto_radial_overlap(int n, int l, double alpha)
{
    CAFQA_REQUIRE(n > l, "Slater orbital requires n > l");
    const double ns = sto_radial_norm(n);
    const double ng = gto_radial_norm(l, alpha);
    auto integrand = [&](double r) {
        return std::pow(r, n + l + 1) * std::exp(-r - alpha * r * r);
    };
    // Two panels: a fine one near the origin for sharp Gaussians, a long
    // one for the exponential tail (zeta = 1 decays within ~60 Bohr).
    const double split = 2.0;
    const double value = simpson(integrand, 0.0, split, 4000) +
                         simpson(integrand, split, 80.0, 4000);
    return ns * ng * value;
}

StoNgFit
fit_sto_ng(int n, int l, int num_gaussians)
{
    CAFQA_REQUIRE(num_gaussians >= 1, "need at least one Gaussian");
    CAFQA_REQUIRE(n > l && n <= 5 && l <= 3, "unsupported shell");

    const std::size_t ng = static_cast<std::size_t>(num_gaussians);

    // For fixed exponents the optimal coefficients satisfy c ~ S^{-1} s
    // and the achieved overlap is sqrt(s^T S^{-1} s).
    auto overlap_for = [&](const std::vector<double>& log_alpha,
                           std::vector<double>* coeffs_out) {
        std::vector<double> alpha(ng);
        for (std::size_t i = 0; i < ng; ++i) {
            alpha[i] = std::exp(log_alpha[i]);
        }
        Matrix s_gg(ng, ng);
        std::vector<double> s_sg(ng);
        for (std::size_t i = 0; i < ng; ++i) {
            s_sg[i] = sto_gto_radial_overlap(n, l, alpha[i]);
            for (std::size_t j = 0; j < ng; ++j) {
                s_gg(i, j) = gto_gto_overlap(l, alpha[i], alpha[j]);
            }
        }
        std::vector<double> c;
        try {
            c = solve_linear(s_gg, s_sg);
        } catch (const std::invalid_argument&) {
            return 0.0; // degenerate exponents
        }
        double quad = 0.0;
        for (std::size_t i = 0; i < ng; ++i) {
            quad += s_sg[i] * c[i];
        }
        if (quad <= 0.0) {
            return 0.0;
        }
        const double ov = std::sqrt(quad);
        if (coeffs_out != nullptr) {
            coeffs_out->assign(ng, 0.0);
            for (std::size_t i = 0; i < ng; ++i) {
                (*coeffs_out)[i] = c[i] / ov; // c^T S c == 1
            }
        }
        return ov;
    };

    // Start from a geometric ladder similar to the known 1s fit, widened
    // for higher principal quantum numbers.
    std::vector<double> start(ng);
    const double center = 0.3 / (n * n);
    for (std::size_t i = 0; i < ng; ++i) {
        start[i] = std::log(center * std::pow(5.0, static_cast<double>(i)));
    }

    auto objective = [&](const std::vector<double>& log_alpha) {
        return -overlap_for(log_alpha, nullptr);
    };

    OptimizeOutcome best{};
    for (int restart = 0; restart < 3; ++restart) {
        std::vector<double> x0 = start;
        for (auto& v : x0) {
            v += 0.4 * restart;
        }
        OptimizeOutcome r = NelderMeadOptimizer(
            {.max_evaluations = 4000, .f_tolerance = 1e-13,
             .initial_step = 0.4}).minimize(objective, x0);
        if (restart == 0 || r.best_value < best.best_value) {
            best = std::move(r);
        }
    }

    StoNgFit fit;
    fit.coefficients.resize(ng);
    fit.overlap = overlap_for(best.best_x, &fit.coefficients);
    fit.exponents.resize(ng);
    for (std::size_t i = 0; i < ng; ++i) {
        fit.exponents[i] = std::exp(best.best_x[i]);
    }
    return fit;
}

} // namespace cafqa::chem
