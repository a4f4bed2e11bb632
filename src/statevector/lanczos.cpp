#include "statevector/lanczos.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "statevector/pair_kernel.hpp"

namespace cafqa {

namespace {

using Vec = std::vector<Complex>;

/** Basis states per block of the matvec: the index bits above 16 are
 *  constant within a block, so one table lookup gives each parity. */
constexpr std::size_t kMatvecBlock = std::size_t{1} << 16;

/** Destination slices per pool worker in a pooled matvec, so a worker
 *  that starts late still gets a share, and the fewest basis states a
 *  slice holds, so each term's setup stays small against its sweep. */
constexpr std::size_t kSlicesPerWorker = 2;
constexpr std::size_t kMinMatvecSlice = 512;

Complex
dot(const Vec& a, const Vec& b)
{
    Complex total{0.0, 0.0};
    for (std::size_t i = 0; i < a.size(); ++i) {
        total += std::conj(a[i]) * b[i];
    }
    return total;
}

double
norm(const Vec& a)
{
    double total = 0.0;
    for (const auto& v : a) {
        total += std::norm(v);
    }
    return std::sqrt(total);
}

void
axpy(Vec& y, Complex alpha, const Vec& x)
{
    for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] += alpha * x[i];
    }
}

void
scale(Vec& y, double alpha)
{
    for (auto& v : y) {
        v *= alpha;
    }
}

Vec
random_unit_vector(std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    Vec v(dim);
    for (auto& a : v) {
        a = Complex{rng.normal(), rng.normal()};
    }
    const double n = norm(v);
    for (auto& a : v) {
        a /= n;
    }
    return v;
}

/**
 * y[d] += (±w_t) x[d ^ x_t] for every term t in order and every
 * destination d in [lo, lo + len), where `len` is a power of two and
 * `lo` a multiple of it. The sign is the parity of (d ^ x_t) & z_t,
 * which splits as parity((base ^ x_t) & z_t) ^ parity(i & z_t) over
 * d = base + i, for base a multiple of the block and i < 2^16.
 */
void
apply_terms(const CompiledPauliSum& op, const double* in, double* out,
            std::uint64_t lo, std::uint64_t len)
{
    const std::uint64_t block = std::min<std::uint64_t>(len, kMatvecBlock);
    for (const CompiledTerm& term : op.terms()) {
        const Complex w =
            term.coefficient * PauliString::i_power(term.phase);
        // w * 1.0 and w * -1.0 are the plain loop's `w * sign`; each is
        // kept as a pair-kernel matrix entry (re, im lanes).
        Lanes re[2];
        Lanes im[2];
        for (const unsigned odd : {0u, 1u}) {
            const Complex signed_w = w * (odd != 0 ? -1.0 : 1.0);
            re[odd] = Lanes{signed_w.real(), signed_w.real()};
            im[odd] = Lanes{-signed_w.imag(), signed_w.imag()};
        }
        const std::uint64_t low_z = term.z & 0xffff;
        for (std::uint64_t base = lo; base < lo + len; base += block) {
            const std::uint64_t from = base ^ term.x;
            const unsigned high = std::popcount(from & term.z) & 1u;
            double* dst = out + 2 * base;
            for (std::uint64_t i = 0; i < block; ++i) {
                const unsigned odd = high ^ kParity16[i & low_z];
                const Lanes a = load_lanes(in + 2 * (from ^ i));
                const Lanes swapped = __builtin_shufflevector(a, a, 1, 0);
                store_lanes(dst + 2 * i,
                            load_lanes(dst + 2 * i) +
                                (re[odd] * a + im[odd] * swapped));
            }
        }
    }
}

} // namespace

void
accumulate_matvec(const CompiledPauliSum& op, const std::vector<Complex>& x,
                  std::vector<Complex>& y, ThreadPool* pool)
{
    CAFQA_REQUIRE(op.num_qubits() < 64, "matvec limited to 63 qubits");
    const std::size_t dim = std::size_t{1} << op.num_qubits();
    CAFQA_REQUIRE(x.size() == dim && y.size() == dim,
                  "buffer size mismatch");
    const double* in = reinterpret_cast<const double*>(x.data());
    double* out = reinterpret_cast<double*>(y.data());
    if (!splits_across(pool, dim * op.terms().size())) {
        apply_terms(op, in, out, 0, dim);
        return;
    }
    // Every slice applies all terms, in order, to its own destinations,
    // so each element gets the serial sequence of adds.
    const std::size_t slices =
        std::min(std::bit_ceil(kSlicesPerWorker * pool->size()),
                 std::max<std::size_t>(dim / kMinMatvecSlice, 1));
    const std::size_t len = dim / slices;
    pool->parallel_for(slices, [&](std::size_t, std::size_t slice) {
        apply_terms(op, in, out, slice * len, len);
    });
}

GroundState
lanczos_ground_state(const PauliSum& hamiltonian, const LanczosOptions& options)
{
    CAFQA_REQUIRE(hamiltonian.num_terms() > 0, "empty Hamiltonian");
    CAFQA_REQUIRE(hamiltonian.max_imag_coefficient() < 1e-8,
                  "Hamiltonian must be Hermitian");
    const CompiledPauliSum compiled(hamiltonian);
    const std::size_t dim = std::size_t{1} << hamiltonian.num_qubits();

    // Basis states outside the sector, zeroed after every matvec.
    std::vector<std::uint64_t> outside;
    if (options.basis_filter) {
        for (std::uint64_t b = 0; b < dim; ++b) {
            if (!options.basis_filter(b)) {
                outside.push_back(b);
            }
        }
    }
    auto project = [&outside](Vec& v) {
        for (const std::uint64_t b : outside) {
            v[b] = Complex{0.0, 0.0};
        }
    };

    std::vector<double> alpha;
    std::vector<double> beta;
    Vec v_prev(dim, Complex{0.0, 0.0});
    Vec v_cur = random_unit_vector(dim, options.seed);
    if (options.basis_filter) {
        project(v_cur);
        const double n = norm(v_cur);
        CAFQA_REQUIRE(n > 1e-12, "basis filter leaves an empty subspace");
        scale(v_cur, 1.0 / n);
    }
    Vec w(dim);

    GroundState result;
    result.ritz_change = std::numeric_limits<double>::infinity();
    // Lowest Ritz value of the previous iteration by bisection, and by
    // Jacobi when `have_previous_jacobi` (that iteration computed it).
    double previous_bisection = std::numeric_limits<double>::quiet_NaN();
    double previous_jacobi = 0.0;
    bool have_previous_jacobi = false;
    for (std::size_t j = 0; j < options.max_iterations; ++j) {
        ++result.iterations;
        std::fill(w.begin(), w.end(), Complex{0.0, 0.0});
        accumulate_matvec(compiled, v_cur, w, options.pool);
        project(w); // guard against roundoff leakage out of the sector

        const double a_j = dot(v_cur, w).real();
        alpha.push_back(a_j);
        axpy(w, Complex{-a_j, 0.0}, v_cur);
        if (j > 0) {
            axpy(w, Complex{-beta.back(), 0.0}, v_prev);
        }

        const double b_j = norm(w);
        const bool last = j + 1 == options.max_iterations;
        const double bisection = lowest_tridiagonal_eigenvalue(alpha, beta);
        // The stop test and the reported values come from the Jacobi
        // eigensolve. Bisection may only skip it when the test is sure
        // to fail: each solver is within tridiagonal_solver_gap of the
        // exact value (the gap grows with the matrix, so this size's
        // bounds the previous one too), hence
        //   |J_j - J_{j-1}| >= |B_j - B_{j-1}| - 2 gap > tolerance.
        // The last iteration always runs Jacobi, for the result.
        const bool keep_going =
            j > 0 && !last && !(b_j < 1e-12) &&
            std::abs(bisection - previous_bisection) -
                    2.0 * tridiagonal_solver_gap(alpha, beta) >
                options.tolerance;
        if (!keep_going) {
            if (j > 0 && !have_previous_jacobi) {
                const std::vector<double> alpha_prev(alpha.begin(),
                                                     alpha.end() - 1);
                const std::vector<double> beta_prev(beta.begin(),
                                                    beta.end() - 1);
                previous_jacobi =
                    tridiagonal_eigenvalues(alpha_prev, beta_prev).front();
            }
            const double current = tridiagonal_eigenvalues(alpha, beta).front();
            if (j > 0) {
                result.ritz_change = std::abs(current - previous_jacobi);
            }
            result.energy = current;
            if (result.ritz_change < options.tolerance || b_j < 1e-12) {
                // Settled, or an invariant subspace: the Ritz value is
                // exact.
                result.converged = true;
                break;
            }
            previous_jacobi = current;
        }
        have_previous_jacobi = !keep_going;
        previous_bisection = bisection;
        beta.push_back(b_j);
        v_prev = v_cur;
        v_cur = w;
        scale(v_cur, 1.0 / b_j);
    }
    return result;
}

} // namespace cafqa
