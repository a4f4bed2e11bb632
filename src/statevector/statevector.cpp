#include "statevector/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "statevector/pair_kernel.hpp"

namespace cafqa {

namespace {

constexpr std::size_t max_statevector_qubits = 28;

/** Amplitudes per chunk of the blocked expectation pass: the chunk's
 *  products (16 B each) stay in L1, and since the chunk divides 2^16
 *  the index bits above 16 are constant within it. */
constexpr std::size_t kExpectationChunk = 2048;

/** The 16 bytes of a `Lanes` value as integers, for sign flips. */
using LaneBits = std::uint64_t __attribute__((vector_size(16)));

/** Xor masks on both lanes, indexed by 2 * high parity + low parity:
 *  keep the value when the two parities agree, negate it otherwise. */
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr LaneBits kNegate[4] = {
    {0, 0}, {kSignBit, kSignBit}, {kSignBit, kSignBit}, {0, 0}};

/**
 * For K terms with Z masks `zs`: acc[k] += (-1)^{parity(b & z_k)} * p_b
 * for b = base .. base + n - 1 in ascending order, where `products`
 * holds p_b for the chunk starting at `base`. Negating p_b is exact, so
 * this is the reference's `total += p_b * sign` operation for
 * operation; the K accumulators are independent chains.
 */
template <std::size_t K>
void
accumulate_terms(const LaneBits* products, std::size_t n, std::uint64_t base,
                 const std::uint64_t* zs, Lanes* acc)
{
    std::uint64_t low_z[K];
    const LaneBits* negate[K];
    Lanes sum[K];
    for (std::size_t k = 0; k < K; ++k) {
        low_z[k] = zs[k] & 0xffff;
        // The index bits above 16 are fixed within the chunk.
        negate[k] =
            kNegate + 2 * kParity16[((base & zs[k]) >> 16) & 0xffff];
        sum[k] = acc[k];
    }
    const std::uint64_t low = base & 0xffff;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t b = low + i;
        const LaneBits p = products[i];
        for (std::size_t k = 0; k < K; ++k) {
            sum[k] += (Lanes)(p ^ negate[k][kParity16[b & low_z[k]]]);
        }
    }
    for (std::size_t k = 0; k < K; ++k) {
        acc[k] = sum[k];
    }
}

/** Per-worker buffers of one group pass. */
struct GroupScratch
{
    std::vector<LaneBits> products;
    std::vector<std::uint64_t> zs;
    std::vector<Lanes> acc;
};

/**
 * One X-mask group of the compiled expectation: forms
 * p_b = conj(a[b ^ x]) * a[b] chunk by chunk and sets
 * sums[t] = sum_b (-1)^{parity(b & z_t)} p_b, in ascending b, for each
 * term t of the group.
 */
void
accumulate_group(const double* amps, std::size_t dim,
                 const CompiledPauliSum& op, const XMaskGroup& group,
                 GroupScratch& scratch, std::vector<Complex>& sums)
{
    const std::size_t chunk = std::min(dim, kExpectationChunk);
    const std::size_t m = group.terms.size();
    scratch.products.resize(chunk);
    scratch.zs.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
        scratch.zs[j] = op.terms()[group.terms[j]].z;
    }
    scratch.acc.assign(m, Lanes{0.0, 0.0});
    LaneBits* products = scratch.products.data();
    const std::uint64_t* zs = scratch.zs.data();
    Lanes* acc = scratch.acc.data();
    for (std::uint64_t base = 0; base < dim; base += chunk) {
        // p_b = conj(a[b ^ x]) * a[b], with std::complex's finite-path
        // arithmetic.
        for (std::size_t i = 0; i < chunk; ++i) {
            const double* c = amps + 2 * ((base + i) ^ group.x);
            const double* d = amps + 2 * (base + i);
            products[i] = (LaneBits)Lanes{c[0] * d[0] + c[1] * d[1],
                                          c[0] * d[1] - c[1] * d[0]};
        }
        std::size_t j = 0;
        for (; j + 4 <= m; j += 4) {
            accumulate_terms<4>(products, chunk, base, zs + j, acc + j);
        }
        switch (m - j) {
          case 3:
            accumulate_terms<3>(products, chunk, base, zs + j, acc + j);
            break;
          case 2:
            accumulate_terms<2>(products, chunk, base, zs + j, acc + j);
            break;
          case 1:
            accumulate_terms<1>(products, chunk, base, zs + j, acc + j);
            break;
          default:
            break;
        }
    }
    for (std::size_t j = 0; j < m; ++j) {
        sums[group.terms[j]] = Complex{acc[j][0], acc[j][1]};
    }
}

} // namespace

bool
splits_across(const ThreadPool* pool, std::size_t work)
{
    return pool != nullptr && pool->size() > 1 && work >= kPooledKernelWork;
}

Statevector::Statevector(std::size_t num_qubits)
    : num_qubits_(num_qubits),
      amplitudes_(std::size_t{1} << num_qubits, Complex{0.0, 0.0})
{
    CAFQA_REQUIRE(num_qubits >= 1 && num_qubits <= max_statevector_qubits,
                  "statevector supports 1..28 qubits");
    amplitudes_[0] = Complex{1.0, 0.0};
}

Statevector
Statevector::basis_state(std::size_t num_qubits, std::uint64_t bits)
{
    Statevector psi(num_qubits);
    CAFQA_REQUIRE(bits < psi.dim(), "basis state index out of range");
    psi.amplitudes_[0] = Complex{0.0, 0.0};
    psi.amplitudes_[bits] = Complex{1.0, 0.0};
    return psi;
}

void
Statevector::apply_1q(const std::array<Complex, 4>& u, std::size_t q)
{
    CAFQA_REQUIRE(q < num_qubits_, "qubit index out of range");
    mix_strided(to_matrix2(u), reinterpret_cast<double*>(amplitudes_.data()),
                amplitudes_.size(), std::size_t{1} << q);
}

void
Statevector::apply_cx(std::size_t control, std::size_t target)
{
    CAFQA_REQUIRE(control < num_qubits_ && target < num_qubits_ &&
                  control != target, "bad cx operands");
    const std::uint64_t cbit = std::uint64_t{1} << control;
    const std::uint64_t tbit = std::uint64_t{1} << target;
    for (std::uint64_t idx = 0; idx < amplitudes_.size(); ++idx) {
        if ((idx & cbit) && !(idx & tbit)) {
            std::swap(amplitudes_[idx], amplitudes_[idx | tbit]);
        }
    }
}

void
Statevector::apply_cz(std::size_t a, std::size_t b)
{
    CAFQA_REQUIRE(a < num_qubits_ && b < num_qubits_ && a != b,
                  "bad cz operands");
    const std::uint64_t abit = std::uint64_t{1} << a;
    const std::uint64_t bbit = std::uint64_t{1} << b;
    for (std::uint64_t idx = 0; idx < amplitudes_.size(); ++idx) {
        if ((idx & abit) && (idx & bbit)) {
            amplitudes_[idx] = -amplitudes_[idx];
        }
    }
}

void
Statevector::apply_swap(std::size_t a, std::size_t b)
{
    CAFQA_REQUIRE(a < num_qubits_ && b < num_qubits_ && a != b,
                  "bad swap operands");
    const std::uint64_t abit = std::uint64_t{1} << a;
    const std::uint64_t bbit = std::uint64_t{1} << b;
    for (std::uint64_t idx = 0; idx < amplitudes_.size(); ++idx) {
        if ((idx & abit) && !(idx & bbit)) {
            std::swap(amplitudes_[idx], amplitudes_[(idx & ~abit) | bbit]);
        }
    }
}

std::array<Complex, 4>
Statevector::gate_matrix(GateKind kind, double angle)
{
    const double inv_sqrt2 = 1.0 / std::numbers::sqrt2;
    const Complex i{0.0, 1.0};
    switch (kind) {
      case GateKind::H:
        return {inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
      case GateKind::X:
        return {0.0, 1.0, 1.0, 0.0};
      case GateKind::Y:
        return {0.0, -i, i, 0.0};
      case GateKind::Z:
        return {1.0, 0.0, 0.0, -1.0};
      case GateKind::S:
        return {1.0, 0.0, 0.0, i};
      case GateKind::Sdg:
        return {1.0, 0.0, 0.0, -i};
      case GateKind::T:
        return {1.0, 0.0, 0.0, std::exp(i * (std::numbers::pi / 4.0))};
      case GateKind::Tdg:
        return {1.0, 0.0, 0.0, std::exp(-i * (std::numbers::pi / 4.0))};
      case GateKind::Rx: {
        const double c = std::cos(angle / 2.0);
        const double s = std::sin(angle / 2.0);
        return {Complex{c, 0.0}, -i * s, -i * s, Complex{c, 0.0}};
      }
      case GateKind::Ry: {
        const double c = std::cos(angle / 2.0);
        const double s = std::sin(angle / 2.0);
        return {Complex{c, 0.0}, Complex{-s, 0.0}, Complex{s, 0.0},
                Complex{c, 0.0}};
      }
      case GateKind::Rz: {
        return {std::exp(-i * (angle / 2.0)), 0.0, 0.0,
                std::exp(i * (angle / 2.0))};
      }
      default:
        CAFQA_REQUIRE(false, "gate has no single-qubit matrix");
    }
    return {};
}

void
Statevector::apply(const GateOp& op, const std::vector<double>& params)
{
    switch (op.kind) {
      case GateKind::CX: apply_cx(op.q0, op.q1); return;
      case GateKind::CZ: apply_cz(op.q0, op.q1); return;
      case GateKind::Swap: apply_swap(op.q0, op.q1); return;
      case GateKind::Rzz: {
        // Diagonal: exp(-i theta/2) on even ZZ parity, exp(+i theta/2)
        // on odd.
        const double theta = op.resolved_angle(params);
        const Complex even = std::exp(Complex{0.0, -theta / 2.0});
        const Complex odd = std::exp(Complex{0.0, theta / 2.0});
        const std::uint64_t mask = (std::uint64_t{1} << op.q0) |
                                   (std::uint64_t{1} << op.q1);
        for (std::uint64_t idx = 0; idx < amplitudes_.size(); ++idx) {
            const bool parity_odd =
                std::popcount(idx & mask) % 2 == 1;
            amplitudes_[idx] *= parity_odd ? odd : even;
        }
        return;
      }
      default:
        break;
    }
    const double angle =
        is_rotation(op.kind) ? op.resolved_angle(params) : 0.0;
    apply_1q(gate_matrix(op.kind, angle), op.q0);
}

void
Statevector::apply_circuit(const Circuit& circuit,
                           const std::vector<double>& params)
{
    CAFQA_REQUIRE(circuit.num_qubits() == num_qubits_,
                  "circuit qubit count mismatch");
    for (const auto& op : circuit.ops()) {
        apply(op, params);
    }
}

void
Statevector::apply_pauli(const PauliString& pauli)
{
    CAFQA_REQUIRE(pauli.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    const auto [xm, zm] = pauli.first_word_masks();
    const Complex phase = PauliString::i_power(pauli.phase_exponent());

    auto z_sign = [zm](std::uint64_t b) {
        return (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
    };

    if (xm == 0) {
        for (std::uint64_t b = 0; b < amplitudes_.size(); ++b) {
            amplitudes_[b] *= phase * z_sign(b);
        }
        return;
    }
    for (std::uint64_t b = 0; b < amplitudes_.size(); ++b) {
        const std::uint64_t partner = b ^ xm;
        if (b >= partner) {
            continue;
        }
        const Complex vb = amplitudes_[b];
        const Complex vp = amplitudes_[partner];
        amplitudes_[partner] = phase * z_sign(b) * vb;
        amplitudes_[b] = phase * z_sign(partner) * vp;
    }
}

Complex
Statevector::expectation(const PauliString& pauli) const
{
    CAFQA_REQUIRE(pauli.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    const auto [xm, zm] = pauli.first_word_masks();
    const Complex phase = PauliString::i_power(pauli.phase_exponent());

    Complex total{0.0, 0.0};
    for (std::uint64_t b = 0; b < amplitudes_.size(); ++b) {
        const double sign = (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
        total += std::conj(amplitudes_[b ^ xm]) * sign * amplitudes_[b];
    }
    return phase * total;
}

double
Statevector::expectation(const PauliSum& op) const
{
    CAFQA_REQUIRE(op.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    return expectation(CompiledPauliSum(op));
}

double
Statevector::expectation(const CompiledPauliSum& op, ThreadPool* pool) const
{
    CAFQA_REQUIRE(op.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    const std::size_t dim = amplitudes_.size();
    // std::complex<double> is layout-compatible with double[2].
    const double* amps = reinterpret_cast<const double*>(amplitudes_.data());
    const std::vector<XMaskGroup>& groups = op.x_groups();
    std::vector<Complex> sums(op.terms().size());
    // One job per group; each writes only its own terms' sums.
    const bool split = splits_across(pool, dim * op.terms().size());
    std::vector<GroupScratch> scratch(split ? pool->size() : 1);
    const auto group_job = [&](std::size_t worker, std::size_t g) {
        accumulate_group(amps, dim, op, groups[g], scratch[worker], sums);
    };
    if (split) {
        pool->parallel_for(groups.size(), group_job);
    } else {
        for (std::size_t g = 0; g < groups.size(); ++g) {
            group_job(0, g);
        }
    }
    double total = 0.0;
    for (std::size_t t = 0; t < sums.size(); ++t) {
        const CompiledTerm& term = op.terms()[t];
        total += (term.coefficient *
                  (PauliString::i_power(term.phase) * sums[t]))
                     .real();
    }
    return total;
}

Complex
Statevector::inner(const Statevector& other) const
{
    CAFQA_REQUIRE(other.num_qubits_ == num_qubits_, "qubit count mismatch");
    Complex total{0.0, 0.0};
    for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
        total += std::conj(amplitudes_[i]) * other.amplitudes_[i];
    }
    return total;
}

double
Statevector::norm_squared() const
{
    double total = 0.0;
    for (const auto& a : amplitudes_) {
        total += std::norm(a);
    }
    return total;
}

void
Statevector::normalize()
{
    const double n2 = norm_squared();
    CAFQA_REQUIRE(n2 > 1e-300, "cannot normalize the zero vector");
    const double inv = 1.0 / std::sqrt(n2);
    for (auto& a : amplitudes_) {
        a *= inv;
    }
}

} // namespace cafqa
