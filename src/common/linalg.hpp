/**
 * @file
 * Minimal dense real linear algebra used by the SCF solver, the DIIS
 * extrapolation, the Lanczos eigensolver and the STO-nG fitter.
 *
 * Matrices are small (basis-set sized, at most a few hundred rows), so the
 * implementations favor robustness and clarity: Jacobi rotations for
 * symmetric eigenproblems and partial-pivot Gaussian elimination for linear
 * systems.
 */
#ifndef CAFQA_COMMON_LINALG_HPP
#define CAFQA_COMMON_LINALG_HPP

#include <cstddef>
#include <vector>

namespace cafqa {

/** Dense row-major real matrix. */
class Matrix
{
  public:
    Matrix() = default;

    /** Zero-initialized rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
    {}

    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double& operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    const std::vector<double>& data() const { return data_; }
    std::vector<double>& data() { return data_; }

    Matrix transpose() const;

    /** Frobenius norm. */
    double norm() const;

    /** Max |a_ij - b_ij|. */
    double max_abs_diff(const Matrix& other) const;

    Matrix& operator+=(const Matrix& other);
    Matrix& operator-=(const Matrix& other);
    Matrix& operator*=(double scale);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

Matrix operator*(const Matrix& a, const Matrix& b);
Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(double scale, Matrix a);

/** Result of a symmetric eigendecomposition A = V diag(w) V^T. */
struct SymmetricEigen
{
    /** Eigenvalues in ascending order. */
    std::vector<double> values;
    /** Column i of `vectors` is the eigenvector for values[i]. */
    Matrix vectors;
};

/**
 * Eigendecomposition of a symmetric matrix via cyclic Jacobi rotations.
 *
 * @param a symmetric input matrix (only assumed symmetric, not checked
 *          beyond a loose tolerance).
 * @return eigenvalues ascending with matching eigenvector columns.
 */
SymmetricEigen symmetric_eigen(const Matrix& a);

/**
 * Solve A x = b with partial-pivot Gaussian elimination.
 *
 * @throws std::invalid_argument if the system is singular to working
 *         precision.
 */
std::vector<double> solve_linear(Matrix a, std::vector<double> b);

/**
 * Symmetric inverse square root A^{-1/2}, used for Loewdin orthogonalization
 * of the AO overlap matrix. Eigenvalues below `threshold` are treated as
 * linear dependence and dropped (their directions are projected out).
 */
Matrix inverse_sqrt(const Matrix& a, double threshold = 1e-10);

/**
 * Eigenvalues of a symmetric tridiagonal matrix (diagonal `alpha`,
 * off-diagonal `beta`, beta.size() == alpha.size() - 1), ascending.
 * Used to extract Ritz values from the Lanczos recurrence. Runs
 * `symmetric_eigen`'s rotations on the matrix alone, so the values are
 * bit-identical to `symmetric_eigen(T).values` without the cost of the
 * eigenvectors.
 */
std::vector<double> tridiagonal_eigenvalues(const std::vector<double>& alpha,
                                            const std::vector<double>& beta);

/**
 * Lowest eigenvalue of the symmetric tridiagonal matrix T = (alpha,
 * beta) by Sturm-count bisection: O(n) per step and about 60 steps,
 * against the O(n^3) per sweep of `tridiagonal_eigenvalues`. Not
 * bit-identical to `tridiagonal_eigenvalues(alpha, beta).front()`; the
 * two differ by at most `tridiagonal_solver_gap(alpha, beta)`.
 */
double lowest_tridiagonal_eigenvalue(const std::vector<double>& alpha,
                                     const std::vector<double>& beta);

/**
 * Bound on |lowest_tridiagonal_eigenvalue - tridiagonal_eigenvalues
 * .front()| for T = (alpha, beta) of size n:
 * 4 (1e-13 + n eps) (1 + ||T||_F), eps the double machine epsilon. The
 * derivation is at the definition.
 */
double tridiagonal_solver_gap(const std::vector<double>& alpha,
                              const std::vector<double>& beta);

} // namespace cafqa

#endif // CAFQA_COMMON_LINALG_HPP
