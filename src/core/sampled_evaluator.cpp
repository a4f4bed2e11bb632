#include "core/sampled_evaluator.hpp"

#include "common/error.hpp"

namespace cafqa {

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

    const std::size_t dim = state_->dim();
    std::vector<double> cumulative(dim);
    // guide[g]: the first index whose cumulative value lies in bucket g
    // or above (see `bucket` below).
    std::vector<std::uint32_t> guide(dim);
    // Shots per outcome, zero outside `occupied` between groups.
    std::vector<std::uint32_t> counts(dim, 0);
    std::vector<std::uint32_t> occupied;
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
        for (std::size_t i = 0; i < dim; ++i) {
            acc += std::norm(rotated.amplitudes()[i]);
            cumulative[i] = acc;
        }
        // A value x in [0, acc] falls in bucket floor(x dim / acc),
        // clamped (in double, before the cast) to the last bucket. The
        // bucket never decreases as x grows, so every index before
        // guide[bucket(u)] has a cumulative value below u, and the
        // forward scan from there stops at std::lower_bound's index:
        // the outcome the plain binary search draws.
        const double bucket_scale =
            acc > 0.0 ? static_cast<double>(dim) / acc : 0.0;
        const double last_bucket = static_cast<double>(dim - 1);
        const auto bucket = [&](double x) {
            const double b = x * bucket_scale;
            return static_cast<std::size_t>(b < last_bucket ? b
                                                            : last_bucket);
        };
        for (std::size_t g = 0, i = 0; g < dim; ++g) {
            while (i < dim && bucket(cumulative[i]) < g) {
                ++i;
            }
            guide[g] = static_cast<std::uint32_t>(i);
        }
        occupied.clear();
        for (std::size_t shot = 0; shot < shots_; ++shot) {
            const double u = rng_.uniform_real(0.0, acc);
            std::size_t i = guide[bucket(u)];
            while (i < dim && cumulative[i] < u) {
                ++i;
            }
            // u <= acc = cumulative[dim - 1] keeps i in range.
            if (counts[i]++ == 0) {
                occupied.push_back(static_cast<std::uint32_t>(i));
            }
        }
        // In the rotated frame every non-identity letter reads the
        // qubit's Z value. The +-1 shot sum is an integer below 2^53,
        // so counting odd outcomes gives it exactly.
        for (const std::size_t t : group.term_indices) {
            const auto support =
                static_cast<std::uint32_t>(terms[t].support);
            std::int64_t odd = 0;
            for (const std::uint32_t bits : occupied) {
                odd += parity32(bits & support) != 0 ? counts[bits] : 0;
            }
            const double term_sum = static_cast<double>(
                static_cast<std::int64_t>(shots_) - 2 * odd);
            total += terms[t].coefficient.real() * term_sum /
                     static_cast<double>(shots_);
        }
        for (const std::uint32_t bits : occupied) {
            counts[bits] = 0;
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
