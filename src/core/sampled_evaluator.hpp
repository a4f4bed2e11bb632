/**
 * @file
 * Finite-shot expectation estimation — the statistics a real quantum
 * device produces. Terms are partitioned into qubit-wise-commuting
 * measurement groups (one basis rotation per group, paper reference
 * [25]); each group's terms are estimated from the *same* sampled
 * bitstrings, reproducing both shot noise and the covariance structure
 * of shared measurement settings.
 *
 * Each distinct observable is compiled once (`CompiledPauliSum`: the
 * measurement groups and each term's support mask) and shared with
 * clones. The generator draws one number per shot, group by group; a
 * guide table over the cumulative distribution maps each draw to the
 * index a binary search would return. Shots are counted per outcome,
 * and a term's odd-parity count sums the counts of the occupied
 * outcomes whose table parity under the term's support is odd, an
 * exact integer. So the draw sequence and every result are
 * bit-identical to the regroup-per-call loop kept in
 * tests/reference_dense.hpp.
 *
 * Every measured (not identity-only) group takes exactly `shots` draws,
 * so one call draws `shots` times its measured-group count, and
 * measured group k reads stream positions [k shots, (k + 1) shots). That
 * fixed layout is what lets a pool split a call: the measured groups
 * are cut into one contiguous run per worker, each run jumps a copy of
 * the generator to its first group with `Rng::discard` and samples
 * into its own scratch, each group writes only its own terms' odd-shot
 * counts, and the sum is taken afterwards on the caller in group and
 * term order. The value and the generator's position after the call
 * are the same to the bit at any worker count.
 *
 * The generator is a member whose stream advances with every call, so a
 * value depends on how many calls came before it on this instance (and
 * a clone continues from the state it was copied at).
 */
#ifndef CAFQA_CORE_SAMPLED_EVALUATOR_HPP
#define CAFQA_CORE_SAMPLED_EVALUATOR_HPP

#include <optional>

#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "pauli/compiled_pauli_sum.hpp"

namespace cafqa {

/** Shot-based backend over the ideal statevector. */
class SampledEvaluator final : public ContinuousBackend
{
  public:
    /**
     * @param ansatz  parameterized circuit.
     * @param shots   measurement shots per qubit-wise-commuting group.
     * @param seed    sampling RNG seed.
     * @param pool    non-owning pool (shared with clones) that splits
     *                each call's measured groups across its workers
     *                once groups x (basis states + shots) reaches
     *                `kPooledKernelWork`; null = serial.
     */
    SampledEvaluator(Circuit ansatz, std::size_t shots, std::uint64_t seed,
                     ThreadPool* pool = nullptr);

    std::string_view kind() const override { return "sampled"; }
    std::size_t num_qubits() const override { return ansatz_.num_qubits(); }
    std::size_t num_params() const override { return ansatz_.num_params(); }

    void prepare(const std::vector<double>& params) override;
    double expectation(const PauliSum& op) const override;
    std::unique_ptr<Backend> clone() const override;

    std::size_t shots() const { return shots_; }

  private:
    Circuit ansatz_;
    std::size_t shots_;
    ThreadPool* pool_;
    mutable Rng rng_;
    std::optional<Statevector> state_;
    mutable ObservableMemo<CompiledPauliSum> compiled_;
};

} // namespace cafqa

#endif // CAFQA_CORE_SAMPLED_EVALUATOR_HPP
