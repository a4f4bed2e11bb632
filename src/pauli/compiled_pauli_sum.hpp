/**
 * @file
 * A `PauliSum` compiled once for the dense kernels, and the
 * per-observable memo the backends keep it in.
 *
 * `CompiledPauliSum` holds what the statevector and sampled kernels
 * otherwise recompute on every call: each term's first-word X, Z and
 * support masks with its coefficient and i^k phase, the term indices
 * grouped by X mask, and the qubit-wise-commuting measurement groups.
 *
 * `ObservableMemo` maps observables to a compiled artifact (this form,
 * or a `StabilizerExpectationEngine`). It finds a bucket by a hash and
 * confirms an entry with `same_observable`, so two observables that
 * collide on the hash get separate entries. The default hash reads only
 * the term count and the first and last terms: a lookup then walks the
 * term list once, in the comparison, which keeps it cheap next to a
 * stabilizer evaluation.
 * Entries are immutable and held by `shared_ptr`, so copying a memo
 * (a backend `clone()`) shares every form compiled so far; each copy
 * then grows on its own. One memo must not be used from two threads at
 * once; the thread-pool fan-out gives each worker its own clone.
 */
#ifndef CAFQA_PAULI_COMPILED_PAULI_SUM_HPP
#define CAFQA_PAULI_COMPILED_PAULI_SUM_HPP

#include <array>
#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "pauli/grouping.hpp"
#include "pauli/pauli_sum.hpp"

namespace cafqa {

/** Parity (0 or 1) of every 16-bit value. */
extern const std::array<std::uint8_t, std::size_t{1} << 16> kParity16;

/** Parity of the set bits of `v`: 1 when odd. Dense indices and
 *  masks fit in 32 bits (at most 28 qubits). */
inline unsigned
parity32(std::uint32_t v)
{
    return kParity16[v & 0xffff] ^ kParity16[v >> 16];
}

/** One term of a compiled sum: coefficient * i^phase * X^x Z^z. */
struct CompiledTerm
{
    std::uint64_t x = 0;
    std::uint64_t z = 0;
    /** Qubits carrying a non-identity letter (x | z). */
    std::uint64_t support = 0;
    std::complex<double> coefficient;
    std::uint8_t phase = 0;
};

/** Terms sharing one X mask, by index into `CompiledPauliSum::terms`. */
struct XMaskGroup
{
    std::uint64_t x = 0;
    std::vector<std::uint32_t> terms;
};

/** A Pauli sum on at most 64 qubits, compiled for the dense kernels. */
class CompiledPauliSum
{
  public:
    explicit CompiledPauliSum(const PauliSum& op);

    std::size_t num_qubits() const { return num_qubits_; }
    /** Terms in the source sum's order. */
    const std::vector<CompiledTerm>& terms() const { return terms_; }
    /** Terms grouped by X mask, groups in first-seen order. */
    const std::vector<XMaskGroup>& x_groups() const { return x_groups_; }
    /** `group_qubitwise_commuting` of the source sum. */
    const std::vector<MeasurementGroup>& measurement_groups() const
    {
        return measurement_groups_;
    }

  private:
    std::size_t num_qubits_ = 0;
    std::vector<CompiledTerm> terms_;
    std::vector<XMaskGroup> x_groups_;
    std::vector<MeasurementGroup> measurement_groups_;
};

/** Constant-time bucket hash of an observable: its qubit and term
 *  counts and its first and last terms. */
std::size_t observable_bucket_hash(const PauliSum& op);

/**
 * Compile-once store of `Compiled(op)` per distinct observable.
 * `Hash` only picks the bucket; a hit also requires
 * `same_observable`. Tests substitute a colliding hash to check that.
 */
template <typename Compiled,
          std::size_t (*Hash)(const PauliSum&) = observable_bucket_hash>
class ObservableMemo
{
  public:
    /** The compiled form of `op`, built on first use. */
    const Compiled& get(const PauliSum& op)
    {
        auto& bucket = entries_[Hash(op)];
        for (const auto& entry : bucket) {
            if (same_observable(entry->observable, op)) {
                return entry->compiled;
            }
        }
        bucket.push_back(std::make_shared<const Entry>(op));
        return bucket.back()->compiled;
    }

    /** Distinct observables compiled so far. */
    std::size_t size() const
    {
        std::size_t n = 0;
        for (const auto& [hash, bucket] : entries_) {
            n += bucket.size();
        }
        return n;
    }

  private:
    struct Entry
    {
        explicit Entry(const PauliSum& op) : observable(op), compiled(op) {}
        PauliSum observable;
        Compiled compiled;
    };
    std::map<std::size_t, std::vector<std::shared_ptr<const Entry>>>
        entries_;
};

} // namespace cafqa

#endif // CAFQA_PAULI_COMPILED_PAULI_SUM_HPP
