#include "pauli/compiled_pauli_sum.hpp"

#include <bit>
#include <unordered_map>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace cafqa {

// Built at compile time, so starting a process costs nothing.
constinit const std::array<std::uint8_t, std::size_t{1} << 16> kParity16 =
    [] {
        std::array<std::uint8_t, std::size_t{1} << 16> table{};
        for (std::size_t v = 1; v < table.size(); ++v) {
            table[v] = static_cast<std::uint8_t>(table[v >> 1] ^ (v & 1));
        }
        return table;
    }();

std::size_t
observable_bucket_hash(const PauliSum& op)
{
    std::size_t h = hash_mix(kHashSeed, op.num_qubits());
    h = hash_mix(h, op.num_terms());
    if (op.num_terms() == 0) {
        return h;
    }
    for (const PauliTerm* term : {&op.terms().front(), &op.terms().back()}) {
        const auto [x, z] = term->string.first_word_masks();
        const std::complex<double> c = term->coefficient;
        for (const std::uint64_t word :
             {std::bit_cast<std::uint64_t>(c.real()),
              std::bit_cast<std::uint64_t>(c.imag()),
              std::uint64_t{term->string.phase_exponent()}, x, z}) {
            h = hash_mix(h, word);
        }
    }
    return h;
}

CompiledPauliSum::CompiledPauliSum(const PauliSum& op)
    : num_qubits_(op.num_qubits()),
      measurement_groups_(group_qubitwise_commuting(op))
{
    CAFQA_REQUIRE(num_qubits_ <= 64,
                  "compiled Pauli sums cover at most 64 qubits");
    terms_.reserve(op.num_terms());
    // Group slot of each X mask; only looked up, never iterated.
    std::unordered_map<std::uint64_t, std::size_t> slot;
    for (const PauliTerm& term : op.terms()) {
        const auto [x, z] = term.string.first_word_masks();
        const auto index = static_cast<std::uint32_t>(terms_.size());
        terms_.push_back(CompiledTerm{x, z, x | z, term.coefficient,
                                      term.string.phase_exponent()});
        const auto [it, fresh] = slot.try_emplace(x, x_groups_.size());
        if (fresh) {
            x_groups_.push_back(XMaskGroup{x, {}});
        }
        x_groups_[it->second].terms.push_back(index);
    }
}

} // namespace cafqa
