/**
 * @file
 * Batched Pauli-sum expectation engine over the column-packed
 * symplectic tableau.
 *
 * A `PauliSum` is precompiled ONCE into packed term masks and then
 * every term of the Hamiltonian is evaluated against the current
 * tableau in a single pass. Two evaluation strategies are compiled,
 * selected by a static cost model (overridable):
 *
 * - **Transposed** (term-rich sums, e.g. molecular Hamiltonians whose
 *   term count grows as O(n^4)): the sum itself is bit-packed
 *   *across terms* — per qubit, one bit-plane holding the X (resp. Z)
 *   support of 64 terms per word. Screening then walks the tableau's
 *   stabilizer columns once, XORing term planes into per-generator
 *   symplectic-product planes: the anticommutation of EVERY term with
 *   every generator falls out word-parallel, 64 terms at a time, and
 *   sign recovery reduces the destabilizer-selected generator phases
 *   with two-bit packed adders plus a pairwise cross-phase matrix.
 *   Cost is O(tableau support * terms/64) for the entire sum.
 *
 * - **Per-term grouped** (few terms or very wide systems, e.g. MaxCut
 *   on 256+ qubits): terms are evaluated one at a time against the
 *   row-packed columns, precompiled through the qubit-wise-commuting
 *   grouping of Gokhale et al. (`pauli/grouping.hpp`): a group gathers
 *   its basis columns once into a contiguous block and screens with a
 *   single shared-support mask — when no stabilizer row touches the
 *   group's basis, every member term skips screening outright.
 *
 * Either way the reduction accumulates in original term order, so both
 * strategies are bit-identical to the legacy row-based term loop.
 */
#ifndef CAFQA_STABILIZER_EXPECTATION_ENGINE_HPP
#define CAFQA_STABILIZER_EXPECTATION_ENGINE_HPP

#include <cstdint>
#include <string_view>
#include <vector>

#include "pauli/grouping.hpp"
#include "pauli/pauli_sum.hpp"
#include "stabilizer/symplectic_tableau.hpp"

namespace cafqa {

/** Evaluation strategy selection. */
enum class EvalStrategy : std::uint8_t {
    /** Pick by the compiled cost model (default). */
    Auto,
    /** Force the per-term grouped pass. */
    PerTerm,
    /** Force the transposed term-plane pass. */
    Transposed,
};

/** A PauliSum compiled for single-pass evaluation on stabilizer states. */
class StabilizerExpectationEngine
{
  public:
    /**
     * Precompile `op`. Throws std::invalid_argument when the sum is not
     * Hermitian (some |imag coefficient| above 1e-8) — a silent
     * `coefficient.real()` would hide mapping bugs that produce complex
     * coefficients.
     */
    explicit StabilizerExpectationEngine(
        const PauliSum& op, EvalStrategy strategy = EvalStrategy::Auto);

    std::size_t num_qubits() const { return num_qubits_; }
    std::size_t num_terms() const { return coefficients_.size(); }
    /** Measurement groups of the per-term pass (0 when the transposed
     *  strategy was compiled instead). */
    std::size_t num_groups() const { return groups_.size(); }
    /** The strategy the cost model picked ("transposed" / "per-term"). */
    std::string_view strategy() const;

    /** Exact expectation of the compiled sum on the current tableau,
     *  all terms in one pass. */
    double expectation(const SymplecticTableau& tableau) const;

  private:
    // ---- per-term grouped strategy ----

    struct CompiledTerm
    {
        /** Phase exponent k of the canonical term string (i^k X^x Z^z). */
        std::uint8_t phase = 0;
        /** Slice into ops_: indices into the owning group's columns. */
        std::uint32_t first_op = 0;
        std::uint32_t num_ops = 0;
        /** Original index in the source PauliSum (reduction order). */
        std::uint32_t term_index = 0;
    };

    struct CompiledGroup
    {
        /** Distinct tableau columns the group's basis touches,
         *  encoded (q << 1) | is_z_column. */
        std::vector<std::uint32_t> columns;
        std::vector<CompiledTerm> terms;
    };

    struct Scratch
    {
        // per-term strategy
        std::vector<std::uint64_t> stab, destab, anti, sel;
        std::vector<std::int8_t> results;
        // transposed strategy
        std::vector<std::uint64_t> sym_planes, sel_planes, cross_rows;
        std::vector<std::uint64_t> masks;
    };

    /** Per-thread reusable buffers: engines are shared across worker
     *  clones, so scratch cannot live in the (const) engine itself, and
     *  re-allocating per evaluation would dominate small sums. */
    static Scratch& thread_scratch();

    void compile_per_term(const PauliSum& op,
                          const std::vector<MeasurementGroup>& groups);
    void compile_transposed(const PauliSum& op);

    /** Fill `scratch.results[term_index]` (+1/-1/0) for one group's
     *  terms. */
    void evaluate_group(const SymplecticTableau& tableau,
                        const CompiledGroup& group, Scratch& scratch) const;

    /** Evaluate every term, accumulating the +/-coefficients in term
     *  order. */
    double evaluate_transposed(const SymplecticTableau& tableau,
                               Scratch& scratch) const;

    double reduce(const std::int8_t* results) const;

    std::size_t num_qubits_ = 0;
    bool transposed_ = false;
    /** Real coefficients in original term order (for the reduction). */
    std::vector<double> coefficients_;

    // per-term strategy state
    std::vector<CompiledGroup> groups_;
    /** Per-term op stream: indices into the owning group's columns. */
    std::vector<std::uint32_t> ops_;

    // transposed strategy state
    /** Words per 64-term block row. */
    std::size_t term_words_ = 0;
    /** Qubit-major term support planes: element [q * term_words_ + w],
     *  bit t of word w = term 64*w + t. */
    std::vector<std::uint64_t> term_x_planes_, term_z_planes_;
    /** Term phase-exponent bit-planes (k = kp0 + 2*kp1 mod 4). */
    std::vector<std::uint64_t> term_kp0_, term_kp1_;
};

} // namespace cafqa

#endif // CAFQA_STABILIZER_EXPECTATION_ENGINE_HPP
