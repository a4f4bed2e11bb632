#include "common/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace cafqa {

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = 1.0;
    }
    return m;
}

Matrix
Matrix::transpose() const
{
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            t(c, r) = (*this)(r, c);
        }
    }
    return t;
}

double
Matrix::norm() const
{
    double sum = 0.0;
    for (double v : data_) {
        sum += v * v;
    }
    return std::sqrt(sum);
}

double
Matrix::max_abs_diff(const Matrix& other) const
{
    CAFQA_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                  "shape mismatch");
    double best = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        best = std::max(best, std::abs(data_[i] - other.data_[i]));
    }
    return best;
}

Matrix&
Matrix::operator+=(const Matrix& other)
{
    CAFQA_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                  "shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] += other.data_[i];
    }
    return *this;
}

Matrix&
Matrix::operator-=(const Matrix& other)
{
    CAFQA_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                  "shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] -= other.data_[i];
    }
    return *this;
}

Matrix&
Matrix::operator*=(double scale)
{
    for (double& v : data_) {
        v *= scale;
    }
    return *this;
}

Matrix
operator*(const Matrix& a, const Matrix& b)
{
    CAFQA_REQUIRE(a.cols() == b.rows(), "inner dimension mismatch");
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) {
                continue;
            }
            for (std::size_t j = 0; j < b.cols(); ++j) {
                c(i, j) += aik * b(k, j);
            }
        }
    }
    return c;
}

Matrix
operator+(Matrix a, const Matrix& b)
{
    a += b;
    return a;
}

Matrix
operator-(Matrix a, const Matrix& b)
{
    a -= b;
    return a;
}

Matrix
operator*(double scale, Matrix a)
{
    a *= scale;
    return a;
}

namespace {

/**
 * Cyclic Jacobi sweeps that diagonalize the symmetric matrix `a` in
 * place. Each rotation is also applied to the columns of `*v` when `v`
 * is given; the updates of `a` never read `v`, so the values come out
 * the same either way.
 */
void
jacobi_diagonalize(Matrix& a, Matrix* v)
{
    const std::size_t n = a.rows();
    auto off_diagonal_norm = [&]() {
        double sum = 0.0;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                sum += a(p, q) * a(p, q);
            }
        }
        return std::sqrt(sum);
    };

    const int max_sweeps = 128;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (off_diagonal_norm() < 1e-13 * (1.0 + a.norm())) {
            break;
        }
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = a(p, q);
                if (std::abs(apq) < 1e-300) {
                    continue;
                }
                const double app = a(p, p);
                const double aqq = a(q, q);
                const double tau = (aqq - app) / (2.0 * apq);
                // Smaller-magnitude root keeps the rotation stable.
                const double t = (tau >= 0.0)
                    ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                    : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;

                for (std::size_t k = 0; k < n; ++k) {
                    const double akp = a(k, p);
                    const double akq = a(k, q);
                    a(k, p) = c * akp - s * akq;
                    a(k, q) = s * akp + c * akq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double apk = a(p, k);
                    const double aqk = a(q, k);
                    a(p, k) = c * apk - s * aqk;
                    a(q, k) = s * apk + c * aqk;
                }
                if (v == nullptr) {
                    continue;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = (*v)(k, p);
                    const double vkq = (*v)(k, q);
                    (*v)(k, p) = c * vkp - s * vkq;
                    (*v)(k, q) = s * vkp + c * vkq;
                }
            }
        }
    }
}

/** Indices of the diagonal of `a`, ordered by ascending value. */
std::vector<std::size_t>
ascending_diagonal(const Matrix& a)
{
    std::vector<std::size_t> order(a.rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
        return a(i, i) < a(j, j);
    });
    return order;
}

} // namespace

SymmetricEigen
symmetric_eigen(const Matrix& input)
{
    CAFQA_REQUIRE(input.rows() == input.cols(), "matrix must be square");
    const std::size_t n = input.rows();
    Matrix a = input;
    Matrix v = Matrix::identity(n);
    jacobi_diagonalize(a, &v);
    const std::vector<std::size_t> order = ascending_diagonal(a);

    SymmetricEigen result;
    result.values.resize(n);
    result.vectors = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        result.values[j] = a(order[j], order[j]);
        for (std::size_t i = 0; i < n; ++i) {
            result.vectors(i, j) = v(i, order[j]);
        }
    }
    return result;
}

std::vector<double>
solve_linear(Matrix a, std::vector<double> b)
{
    CAFQA_REQUIRE(a.rows() == a.cols(), "matrix must be square");
    CAFQA_REQUIRE(a.rows() == b.size(), "rhs size mismatch");
    const std::size_t n = a.rows();

    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(a(r, col)) > std::abs(a(pivot, col))) {
                pivot = r;
            }
        }
        CAFQA_REQUIRE(std::abs(a(pivot, col)) > 1e-14,
                      "singular linear system");
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c) {
                std::swap(a(col, c), a(pivot, c));
            }
            std::swap(b[col], b[pivot]);
        }
        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = a(r, col) / a(col, col);
            if (f == 0.0) {
                continue;
            }
            for (std::size_t c = col; c < n; ++c) {
                a(r, c) -= f * a(col, c);
            }
            b[r] -= f * b[col];
        }
    }

    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t j = i + 1; j < n; ++j) {
            acc -= a(i, j) * x[j];
        }
        x[i] = acc / a(i, i);
    }
    return x;
}

Matrix
inverse_sqrt(const Matrix& a, double threshold)
{
    const SymmetricEigen eig = symmetric_eigen(a);
    const std::size_t n = a.rows();
    Matrix result(n, n);
    for (std::size_t k = 0; k < n; ++k) {
        if (eig.values[k] < threshold) {
            continue; // project out linearly dependent directions
        }
        const double w = 1.0 / std::sqrt(eig.values[k]);
        for (std::size_t i = 0; i < n; ++i) {
            const double vik = eig.vectors(i, k);
            if (vik == 0.0) {
                continue;
            }
            for (std::size_t j = 0; j < n; ++j) {
                result(i, j) += vik * w * eig.vectors(j, k);
            }
        }
    }
    return result;
}

std::vector<double>
tridiagonal_eigenvalues(const std::vector<double>& alpha,
                        const std::vector<double>& beta)
{
    const std::size_t n = alpha.size();
    CAFQA_REQUIRE(n > 0, "empty tridiagonal matrix");
    CAFQA_REQUIRE(beta.size() + 1 == n, "off-diagonal size mismatch");
    Matrix t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        t(i, i) = alpha[i];
        if (i + 1 < n) {
            t(i, i + 1) = beta[i];
            t(i + 1, i) = beta[i];
        }
    }
    jacobi_diagonalize(t, nullptr);
    std::vector<double> values;
    values.reserve(n);
    for (const std::size_t i : ascending_diagonal(t)) {
        values.push_back(t(i, i));
    }
    return values;
}

namespace {

constexpr double kEpsilon = std::numeric_limits<double>::epsilon();

/** True when T has an eigenvalue below `x`: the LDL^T factorization
 *  of T - xI has as many negative pivots as T has eigenvalues below x
 *  (Sturm count), so the first negative pivot decides. A pivot smaller
 *  than `pivmin` in magnitude counts as -pivmin (LAPACK's dstebz rule),
 *  so x at an eigenvalue of a leading block never divides by zero. */
bool
has_eigenvalue_below(const std::vector<double>& alpha,
                     const std::vector<double>& beta_squared, double x,
                     double pivmin)
{
    double d = 1.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) {
        d = (alpha[i] - x) - (i > 0 ? beta_squared[i - 1] / d : 0.0);
        if (d < pivmin) {
            return true;
        }
    }
    return false;
}

} // namespace

double
lowest_tridiagonal_eigenvalue(const std::vector<double>& alpha,
                              const std::vector<double>& beta)
{
    const std::size_t n = alpha.size();
    CAFQA_REQUIRE(n > 0, "empty tridiagonal matrix");
    CAFQA_REQUIRE(beta.size() + 1 == n, "off-diagonal size mismatch");
    std::vector<double> beta_squared(beta.size());
    double max_beta_squared = 1.0;
    for (std::size_t i = 0; i < beta.size(); ++i) {
        beta_squared[i] = beta[i] * beta[i];
        max_beta_squared = std::max(max_beta_squared, beta_squared[i]);
    }
    const double pivmin =
        std::numeric_limits<double>::min() * max_beta_squared;

    // The lowest eigenvalue lies in [lo, hi]: hi = min alpha_i (the
    // Rayleigh quotient of e_i) and lo the lowest Gershgorin bound,
    // widened by the rounding of its own sum.
    double lo = std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
        const double radius = (i > 0 ? std::abs(beta[i - 1]) : 0.0) +
                              (i + 1 < n ? std::abs(beta[i]) : 0.0);
        lo = std::min(lo, alpha[i] - radius);
        hi = std::min(hi, alpha[i]);
    }
    lo -= 4.0 * kEpsilon * std::max(std::abs(lo), 1.0);

    // Invariant: no eigenvalue below lo, one at or below hi. Stops at a
    // relative width of eps (absolute eps near zero) or when the
    // midpoint no longer splits the interval; NaN input stops at once.
    while (hi - lo > kEpsilon * std::max({std::abs(lo), std::abs(hi), 1.0})) {
        const double mid = lo + 0.5 * (hi - lo);
        if (mid <= lo || mid >= hi) {
            break;
        }
        if (has_eigenvalue_below(alpha, beta_squared, mid, pivmin)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return lo + 0.5 * (hi - lo);
}

double
tridiagonal_solver_gap(const std::vector<double>& alpha,
                       const std::vector<double>& beta)
{
    // ||T||_F, F below. Jacobi (`jacobi_diagonalize`) stops once the
    // upper-triangle norm of the rotated matrix A is below
    // 1e-13 (1 + F); the full off-diagonal part then has 2-norm below
    // sqrt(2) 1e-13 (1 + F), which by Weyl bounds the distance from the
    // smallest diagonal entry to the smallest eigenvalue of A. A is
    // exactly similar to T + E, where E collects the rounding of the
    // rotations: each sweep is backward stable with ||E|| of order
    // n eps F. Bisection returns an eigenvalue of T + E' with ||E'|| a
    // few eps ||T||, to a relative width of eps. The eigenvalue moves by
    // at most the norm of the perturbation (Weyl), so both solvers sit
    // within (1e-13 + n eps)(1 + F) of the exact value up to small
    // constants, and the factor 4 covers those constants. On the random
    // matrices of `LowestTridiagonalEigenvalue` (test_common) the two
    // solvers differ by under 1% of this bound.
    double frobenius_squared = 0.0;
    for (const double a : alpha) {
        frobenius_squared += a * a;
    }
    for (const double b : beta) {
        frobenius_squared += 2.0 * b * b;
    }
    const double n = static_cast<double>(alpha.size());
    return 4.0 * (1e-13 + n * kEpsilon) *
           (1.0 + std::sqrt(frobenius_squared));
}

} // namespace cafqa
