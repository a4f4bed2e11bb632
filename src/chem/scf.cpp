#include "chem/scf.hpp"

#include <cmath>
#include <deque>

#include "common/error.hpp"

namespace cafqa::chem {

AoIntegrals
compute_ao_integrals(const Molecule& molecule, const BasisSet& basis)
{
    AoIntegrals out;
    out.n = basis.size();
    out.overlap = overlap_matrix(basis);
    out.h_core = kinetic_matrix(basis) + nuclear_matrix(basis, molecule);
    out.eri = eri_tensor(basis);
    return out;
}

namespace {

/** Convergence thresholds between successive iterations: total energy
 *  (Hartree) and max-abs AO density change. */
constexpr double kEnergyTolerance = 1e-10;
constexpr double kDensityTolerance = 1e-8;
/** Fock/error pairs kept for DIIS extrapolation. */
constexpr std::size_t kDiisSize = 8;

/** Fock matrix F = H + G(D) with G_ij = sum_kl D_kl [(ij|kl) - (ik|jl)/2]. */
Matrix
build_fock(const Matrix& h, const std::vector<double>& eri,
           const Matrix& density)
{
    const std::size_t n = h.rows();
    Matrix f = h;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double g = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
                for (std::size_t l = 0; l < n; ++l) {
                    const double d = density(k, l);
                    if (d == 0.0) {
                        continue;
                    }
                    g += d * (eri[eri_index(n, i, j, k, l)] -
                              0.5 * eri[eri_index(n, i, k, j, l)]);
                }
            }
            f(i, j) += g;
        }
    }
    return f;
}

/** Closed-shell density D = 2 C_occ C_occ^T. */
Matrix
build_density(const Matrix& c, std::size_t n_occ)
{
    const std::size_t n = c.rows();
    Matrix d(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double sum = 0.0;
            for (std::size_t m = 0; m < n_occ; ++m) {
                sum += c(i, m) * c(j, m);
            }
            d(i, j) = 2.0 * sum;
        }
    }
    return d;
}

double
electronic_energy(const Matrix& h, const Matrix& f, const Matrix& d)
{
    double e = 0.0;
    for (std::size_t i = 0; i < h.rows(); ++i) {
        for (std::size_t j = 0; j < h.cols(); ++j) {
            e += 0.5 * d(i, j) * (h(i, j) + f(i, j));
        }
    }
    return e;
}

} // namespace

ScfResult
rhf(const Molecule& molecule, const AoIntegrals& integrals,
    const ScfOptions& options)
{
    const std::size_t n = integrals.n;
    const int electrons = molecule.num_electrons();
    CAFQA_REQUIRE(electrons > 0, "no electrons");
    CAFQA_REQUIRE(electrons % 2 == 0,
                  "RHF requires an even electron count (closed shell)");
    const std::size_t n_occ = static_cast<std::size_t>(electrons / 2);
    CAFQA_REQUIRE(n_occ <= n, "more electron pairs than basis functions");

    const Matrix x = inverse_sqrt(integrals.overlap);
    const Matrix& s = integrals.overlap;
    const Matrix& h = integrals.h_core;

    // Core-Hamiltonian guess.
    Matrix f = h;
    Matrix density(n, n);
    Matrix c(n, n);
    std::vector<double> orbital_energies(n, 0.0);

    std::deque<Matrix> diis_focks;
    std::deque<Matrix> diis_errors;

    double energy_prev = 0.0;
    ScfResult result;
    result.nuclear_repulsion = molecule.nuclear_repulsion();

    for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
        // Diagonalize in the orthonormal basis (with optional level
        // shift on the virtual block built from the previous orbitals).
        Matrix f_ortho = x * f * x;
        if (options.level_shift != 0.0 && iter > 0) {
            // Q = I - P_occ in the orthonormal basis, P_occ built from
            // the current orthonormalized occupied orbitals.
            // C_ortho = S^{1/2} C = X^{-1} C; instead of forming S^{1/2}
            // we use the identity P_ortho = X^{-1} (D/2) X^{-1} =
            // (S X) (D/2) (X S) since X^{-1} = S X.
            const Matrix sx = s * x;
            const Matrix p = sx.transpose() * (0.5 * density) * sx;
            Matrix q = Matrix::identity(n) - p;
            f_ortho += options.level_shift * q;
        }
        const SymmetricEigen eig = symmetric_eigen(f_ortho);
        orbital_energies = eig.values;
        c = x * eig.vectors;

        Matrix density_new = build_density(c, n_occ);
        if (iter < options.damping_iterations && options.damping > 0.0 &&
            iter > 0) {
            density_new =
                (1.0 - options.damping) * density_new +
                options.damping * density;
        }
        const double density_change = density_new.max_abs_diff(density);
        density = std::move(density_new);

        f = build_fock(h, integrals.eri, density);
        const double e_elec = electronic_energy(h, f, density);

        // DIIS: error = F D S - S D F, orthonormalized.
        Matrix error = f * density * s - s * density * f;
        error = x * error * x;
        diis_focks.push_back(f);
        diis_errors.push_back(error);
        if (diis_focks.size() > kDiisSize) {
            diis_focks.pop_front();
            diis_errors.pop_front();
        }
        const std::size_t m = diis_focks.size();
        if (m >= 2 && iter >= options.damping_iterations) {
            // Solve the DIIS linear system with the Lagrange row.
            Matrix b(m + 1, m + 1);
            std::vector<double> rhs(m + 1, 0.0);
            for (std::size_t p = 0; p < m; ++p) {
                for (std::size_t q = 0; q < m; ++q) {
                    double dot = 0.0;
                    const auto& ep = diis_errors[p].data();
                    const auto& eq = diis_errors[q].data();
                    for (std::size_t t = 0; t < ep.size(); ++t) {
                        dot += ep[t] * eq[t];
                    }
                    b(p, q) = dot;
                }
                b(p, m) = -1.0;
                b(m, p) = -1.0;
            }
            rhs[m] = -1.0;
            try {
                const std::vector<double> w = solve_linear(b, rhs);
                Matrix f_diis(n, n);
                for (std::size_t p = 0; p < m; ++p) {
                    f_diis += w[p] * diis_focks[p];
                }
                f = std::move(f_diis);
            } catch (const std::invalid_argument&) {
                // Singular DIIS system: fall back to the plain Fock.
            }
        }

        const double total = e_elec + result.nuclear_repulsion;
        const bool converged =
            iter > 0 &&
            std::abs(total - energy_prev) < kEnergyTolerance &&
            density_change < kDensityTolerance;
        energy_prev = total;
        result.iterations = iter + 1;
        result.electronic_energy = e_elec;
        result.energy = total;
        if (converged) {
            result.converged = true;
            break;
        }
    }

    result.mo_coefficients = c;
    result.orbital_energies = orbital_energies;
    result.density = density;
    return result;
}

} // namespace cafqa::chem
