#include "core/sampled_evaluator.hpp"

#include "common/error.hpp"

namespace cafqa {

namespace {

/** `std::lower_bound`'s position of `u` in the non-empty sorted
 *  `values` (the first index whose value is not below `u`, or the size),
 *  found with a fixed number of steps and no data-dependent branch. */
std::uint32_t
lower_bound_index(const std::vector<double>& values, double u)
{
    const double* base = values.data();
    std::size_t n = values.size();
    while (n > 1) {
        const std::size_t half = n / 2;
        base += static_cast<std::size_t>(base[half - 1] < u) * half;
        n -= half;
    }
    return static_cast<std::uint32_t>(base - values.data()) + (*base < u);
}

} // namespace

SampledEvaluator::SampledEvaluator(Circuit ansatz, std::size_t shots,
                                   std::uint64_t seed)
    : ansatz_(std::move(ansatz)), shots_(shots), rng_(seed)
{
    CAFQA_REQUIRE(shots >= 1, "need at least one shot");
}

void
SampledEvaluator::prepare(const std::vector<double>& params)
{
    state_.emplace(ansatz_.num_qubits());
    state_->apply_circuit(ansatz_, params);
}

double
SampledEvaluator::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(state_.has_value(), "prepare() has not been called");
    CAFQA_REQUIRE(op.num_qubits() == state_->num_qubits(),
                  "operator qubit count mismatch");

    const CompiledPauliSum& compiled = compiled_.get(op);
    const std::vector<CompiledTerm>& terms = compiled.terms();
    double total = 0.0;

    std::vector<double> cumulative(state_->dim());
    std::vector<std::uint32_t> outcomes(shots_);
    Statevector rotated(state_->num_qubits());
    for (const auto& group : compiled.measurement_groups()) {
        // Identity-only groups are exact.
        if (group.basis.is_identity_letters()) {
            for (const std::size_t t : group.term_indices) {
                total += terms[t].coefficient.real();
            }
            continue;
        }

        // Rotate the shared basis to Z: H for X, H.Sdg for Y.
        rotated.amplitudes() = state_->amplitudes();
        for (std::size_t q = 0; q < op.num_qubits(); ++q) {
            switch (group.basis.letter(q)) {
              case PauliLetter::X:
                rotated.apply_1q(
                    Statevector::gate_matrix(GateKind::H, 0.0), q);
                break;
              case PauliLetter::Y:
                rotated.apply_1q(
                    Statevector::gate_matrix(GateKind::Sdg, 0.0), q);
                rotated.apply_1q(
                    Statevector::gate_matrix(GateKind::H, 0.0), q);
                break;
              default:
                break;
            }
        }

        // Sample bitstrings from the rotated distribution.
        double acc = 0.0;
        for (std::size_t i = 0; i < rotated.dim(); ++i) {
            acc += std::norm(rotated.amplitudes()[i]);
            cumulative[i] = acc;
        }
        for (std::size_t shot = 0; shot < shots_; ++shot) {
            outcomes[shot] =
                lower_bound_index(cumulative, rng_.uniform_real(0.0, acc));
        }
        // In the rotated frame every non-identity letter reads the
        // qubit's Z value. The +-1 shot sum is an integer below 2^53,
        // so counting odd outcomes gives it exactly.
        for (const std::size_t t : group.term_indices) {
            const auto support =
                static_cast<std::uint32_t>(terms[t].support);
            std::int64_t odd = 0;
            for (const std::uint32_t bits : outcomes) {
                odd += parity32(bits & support);
            }
            const double term_sum = static_cast<double>(
                static_cast<std::int64_t>(shots_) - 2 * odd);
            total += terms[t].coefficient.real() * term_sum /
                     static_cast<double>(shots_);
        }
    }
    return total;
}

std::unique_ptr<Backend>
SampledEvaluator::clone() const
{
    return std::make_unique<SampledEvaluator>(*this);
}

} // namespace cafqa
