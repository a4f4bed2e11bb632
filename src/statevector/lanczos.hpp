/**
 * @file
 * Lanczos ground-state solver for qubit Hamiltonians — the "Exact"
 * reference of the paper's evaluation (possible only for small problem
 * sizes; here up to ~18-20 qubits).
 *
 * The solve compiles H once (`CompiledPauliSum`) and applies it to a
 * dense vector term by term, in the sum's order, so no matrix is ever
 * materialized. Each term's pass picks +w or -w per basis state from a
 * parity table and forms the complex product the way `pair_kernel.hpp`
 * does; every update is the same IEEE operation as the plain per-term
 * loop (`tests/reference_dense.hpp` keeps it as the oracle), so the
 * energy and the iteration count match it bit for bit. Each iteration
 * takes the lowest Ritz value by O(m) Sturm-count bisection
 * (`lowest_tridiagonal_eigenvalue`). When its change clears `tolerance`
 * by more than both solvers' error bound, the stop test cannot pass and
 * the iteration goes on; otherwise, and at the last iteration, the
 * O(m^3) values-only Jacobi eigensolve (`tridiagonal_eigenvalues`)
 * decides the stop and gives the reported values, exactly as the oracle
 * loop does at every iteration.
 *
 * Given a pool (`LanczosOptions::pool`), each matvec splits its
 * destination range across the workers; every element still receives
 * its adds in term order, so a pooled solve returns the serial one's
 * energy and iteration count bit for bit. The inner products, norms
 * and Ritz solves stay serial.
 *
 * A solve that reaches `max_iterations` before the lowest Ritz value
 * settles returns `converged == false`; callers that need a reference
 * value must check it.
 */
#ifndef CAFQA_STATEVECTOR_LANCZOS_HPP
#define CAFQA_STATEVECTOR_LANCZOS_HPP

#include <functional>

#include "pauli/compiled_pauli_sum.hpp"
#include "pauli/pauli_sum.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {

/** Options for the Lanczos iteration. */
struct LanczosOptions
{
    /** Maximum Krylov dimension. */
    std::size_t max_iterations = 300;
    /** Stop when the smallest Ritz value changes less than this. */
    double tolerance = 1e-10;
    /** Seed for the random start vector. */
    std::uint64_t seed = 7;
    /**
     * Optional symmetry-sector restriction: basis states for which the
     * predicate returns false are projected out of the start vector and
     * after every matvec. The Hamiltonian must preserve the subspace
     * (e.g. an electron-number sector of a molecular Hamiltonian) —
     * the solve then returns the lowest eigenvalue *within the sector*.
     */
    std::function<bool(std::uint64_t)> basis_filter;
    /** Non-owning pool that splits each matvec (null = serial). The
     *  result is the same to the bit; `dot`, `norm` and the Ritz
     *  solves stay serial. */
    ThreadPool* pool = nullptr;
};

/** Result of a ground-state solve. */
struct GroundState
{
    /** Lowest Ritz value at the last iteration. */
    double energy = 0.0;
    /** Krylov iterations actually performed. */
    std::size_t iterations = 0;
    /** False when the solve stopped at `max_iterations` with the lowest
     *  Ritz value still moving by `tolerance` or more. */
    bool converged = false;
    /** |change| of the lowest Ritz value over the last iteration
     *  (infinity after a single iteration). */
    double ritz_change = 0.0;
};

/** Smallest eigenvalue of a Hermitian Pauli sum. */
GroundState lanczos_ground_state(const PauliSum& hamiltonian,
                                 const LanczosOptions& options = {});

/**
 * y += H x, for `x` and `y` of length 2^num_qubits: the Lanczos matvec.
 * Terms are applied in `op.terms()` order, each as one sweep of
 * y[b ^ x_t] += (±w_t) x[b] with w_t = coefficient * i^phase, so every
 * element receives the same sequence of IEEE operations as the plain
 * per-term loop. With a `pool` and at least `kPooledKernelWork`
 * element-terms, the destination range is cut into contiguous slices
 * and each job applies every term, in order, to its own slice: the
 * per-element sequence, and so the result, is unchanged.
 */
void accumulate_matvec(const CompiledPauliSum& op,
                       const std::vector<Complex>& x,
                       std::vector<Complex>& y, ThreadPool* pool = nullptr);

} // namespace cafqa

#endif // CAFQA_STATEVECTOR_LANCZOS_HPP
