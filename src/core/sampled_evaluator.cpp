#include "core/sampled_evaluator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace cafqa {

namespace {

/** One chunk's buffers, reused across its groups. */
struct SampleScratch
{
    SampleScratch(std::size_t num_qubits, std::size_t shots)
        : rotated(num_qubits), cumulative(rotated.dim()),
          guide(rotated.dim()), counts(rotated.dim(), 0), draws(shots)
    {
    }

    Statevector rotated;
    std::vector<double> cumulative;
    // guide[g]: the first index whose cumulative value lies in bucket g
    // or above (see `bucket` below).
    std::vector<std::uint32_t> guide;
    // Shots per outcome, zero outside `occupied` between groups.
    std::vector<std::uint32_t> counts;
    std::vector<std::uint32_t> occupied;
    std::vector<double> draws;
};

/** Samples `group` (not identity-only) with `draws.size()` draws from
 *  `rng`, writing each of its terms' odd-parity shot count to `odd`. */
void
sample_group(const Statevector& state, const MeasurementGroup& group,
             const std::vector<CompiledTerm>& terms, Rng& rng,
             SampleScratch& s, std::vector<std::int64_t>& odd)
{
    // Rotate the shared basis to Z: H for X, H.Sdg for Y.
    s.rotated.amplitudes() = state.amplitudes();
    for (std::size_t q = 0; q < state.num_qubits(); ++q) {
        switch (group.basis.letter(q)) {
          case PauliLetter::X:
            s.rotated.apply_1q(Statevector::gate_matrix(GateKind::H, 0.0),
                               q);
            break;
          case PauliLetter::Y:
            s.rotated.apply_1q(
                Statevector::gate_matrix(GateKind::Sdg, 0.0), q);
            s.rotated.apply_1q(Statevector::gate_matrix(GateKind::H, 0.0),
                               q);
            break;
          default:
            break;
        }
    }

    // Sample bitstrings from the rotated distribution.
    const std::size_t dim = state.dim();
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
        acc += std::norm(s.rotated.amplitudes()[i]);
        s.cumulative[i] = acc;
    }
    // A value x in [0, acc] falls in bucket floor(x dim / acc), clamped
    // (in double, before the cast) to the last bucket. The bucket never
    // decreases as x grows, so every index before guide[bucket(u)] has
    // a cumulative value below u, and the forward scan from there stops
    // at std::lower_bound's index: the outcome the plain binary search
    // draws.
    const double bucket_scale =
        acc > 0.0 ? static_cast<double>(dim) / acc : 0.0;
    const double last_bucket = static_cast<double>(dim - 1);
    const auto bucket = [&](double x) {
        const double b = x * bucket_scale;
        return static_cast<std::size_t>(b < last_bucket ? b : last_bucket);
    };
    for (std::size_t g = 0, i = 0; g < dim; ++g) {
        while (i < dim && bucket(s.cumulative[i]) < g) {
            ++i;
        }
        s.guide[g] = static_cast<std::uint32_t>(i);
    }
    rng.uniform_reals(0.0, acc, s.draws.data(), s.draws.size());
    s.occupied.clear();
    for (const double u : s.draws) {
        std::size_t i = s.guide[bucket(u)];
        while (i < dim && s.cumulative[i] < u) {
            ++i;
        }
        // u <= acc = cumulative[dim - 1] keeps i in range.
        if (s.counts[i]++ == 0) {
            s.occupied.push_back(static_cast<std::uint32_t>(i));
        }
    }
    // In the rotated frame every non-identity letter reads the qubit's
    // Z value, so a term's odd count sums the counts of the occupied
    // outcomes with odd parity under its support.
    for (const std::size_t t : group.term_indices) {
        const auto support = static_cast<std::uint32_t>(terms[t].support);
        std::int64_t count = 0;
        for (const std::uint32_t bits : s.occupied) {
            count += parity32(bits & support) != 0 ? s.counts[bits] : 0;
        }
        odd[t] = count;
    }
    for (const std::uint32_t bits : s.occupied) {
        s.counts[bits] = 0;
    }
}

} // namespace

SampledEvaluator::SampledEvaluator(Circuit ansatz, std::size_t shots,
                                   std::uint64_t seed, ThreadPool* pool)
    : ansatz_(std::move(ansatz)), shots_(shots), pool_(pool), rng_(seed)
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
    const std::vector<MeasurementGroup>& groups =
        compiled.measurement_groups();
    // Identity-only groups are exact and draw nothing; measured group k
    // draws stream positions [k shots, (k + 1) shots).
    std::vector<std::size_t> measured;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (!groups[g].basis.is_identity_letters()) {
            measured.push_back(g);
        }
    }

    // Contiguous runs of measured groups; each chunk jumps a copy of
    // the generator to its first group's draws and writes only its own
    // groups' terms.
    const bool split =
        splits_across(pool_, measured.size() * (state_->dim() + shots_));
    const std::size_t chunks =
        split ? std::min(pool_->size(), measured.size()) : 1;
    std::vector<Rng> streams(chunks, rng_);
    std::vector<std::int64_t> odd(terms.size(), 0);
    const auto chunk_job = [&](std::size_t, std::size_t c) {
        const std::size_t begin = measured.size() * c / chunks;
        const std::size_t end = measured.size() * (c + 1) / chunks;
        streams[c].discard(begin * shots_);
        SampleScratch scratch(state_->num_qubits(), shots_);
        for (std::size_t k = begin; k < end; ++k) {
            sample_group(*state_, groups[measured[k]], terms, streams[c],
                         scratch, odd);
        }
    };
    if (split) {
        pool_->parallel_for(chunks, chunk_job);
    } else {
        chunk_job(0, 0);
    }
    // The last chunk's generator stops where the call's draws end.
    rng_ = streams.back();

    // The +-1 shot sum is an integer below 2^53, so the odd count gives
    // it exactly; terms add up in group order.
    double total = 0.0;
    for (const MeasurementGroup& group : groups) {
        const bool exact = group.basis.is_identity_letters();
        for (const std::size_t t : group.term_indices) {
            if (exact) {
                total += terms[t].coefficient.real();
                continue;
            }
            const double term_sum = static_cast<double>(
                static_cast<std::int64_t>(shots_) - 2 * odd[t]);
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
