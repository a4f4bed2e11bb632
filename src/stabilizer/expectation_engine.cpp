#include "stabilizer/expectation_engine.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "pauli/grouping.hpp"

namespace cafqa {

namespace {

/** Max tolerated |imag coefficient|: the sum must be Hermitian for its
 *  stabilizer expectation to be the real number the engine returns. */
constexpr double kHermitianTolerance = 1e-8;

/** Column references a Pauli letter contributes to the symplectic
 *  product: an X/Y support bit flips against the Z columns, a Z/Y
 *  support bit against the X columns. */
constexpr std::uint32_t
x_column(std::size_t q)
{
    return static_cast<std::uint32_t>(q << 1);
}

constexpr std::uint32_t
z_column(std::size_t q)
{
    return static_cast<std::uint32_t>((q << 1) | 1);
}

} // namespace

StabilizerExpectationEngine::StabilizerExpectationEngine(
    const PauliSum& op, EvalStrategy strategy)
    : num_qubits_(op.num_qubits())
{
    CAFQA_REQUIRE(num_qubits_ >= 1,
                  "expectation engine needs at least one qubit");
    require_hermitian(op, kHermitianTolerance);

    coefficients_.reserve(op.num_terms());
    for (const auto& term : op.terms()) {
        coefficients_.push_back(term.coefficient.real());
    }

    // The QWC grouping serves double duty: its size drives the Auto
    // strategy choice, and the per-term pass compiles from it — so it
    // is computed at most once and reused.
    std::vector<MeasurementGroup> qwc_groups;
    if (strategy != EvalStrategy::Transposed) {
        qwc_groups = group_qubitwise_commuting(op);
    }

    if (strategy == EvalStrategy::Auto) {
        // Strongly QWC-structured sums (e.g. diagonal MaxCut
        // Hamiltonians: one group) win on the per-term pass — the
        // shared gather and group-level screening skip nearly all the
        // work. Everything else (molecular sums, generic mixtures)
        // wins on the transposed term-plane pass, whose cost is
        // bounded by tableau support rather than term count.
        transposed_ = op.num_terms() >= 2 &&
                      qwc_groups.size() * 8 > op.num_terms();
    } else {
        transposed_ = strategy == EvalStrategy::Transposed;
    }

    if (transposed_) {
        compile_transposed(op);
    } else {
        compile_per_term(op, qwc_groups);
    }
}

std::string_view
StabilizerExpectationEngine::strategy() const
{
    return transposed_ ? "transposed" : "per-term";
}

// ------------------------------------------------- per-term compilation

void
StabilizerExpectationEngine::compile_per_term(
    const PauliSum& op, const std::vector<MeasurementGroup>& groups)
{
    // One measurement group per QWC class: each group's basis names the
    // distinct tableau columns its terms can touch, so the evaluation
    // pass gathers those columns once and every member term XORs a
    // subset of the gathered block.
    groups_.reserve(groups.size());
    for (const auto& group : groups) {
        CompiledGroup compiled;
        // Column slots from the shared basis, in qubit order; remember
        // each qubit's slot so terms can reference gathered columns by
        // small index.
        std::vector<std::uint32_t> x_slot(num_qubits_, UINT32_MAX);
        std::vector<std::uint32_t> z_slot(num_qubits_, UINT32_MAX);
        for (std::size_t q = 0; q < num_qubits_; ++q) {
            const PauliLetter letter = group.basis.letter(q);
            if (letter == PauliLetter::I) {
                continue;
            }
            if (letter != PauliLetter::X) { // Z or Y: symplectic vs X cols
                x_slot[q] =
                    static_cast<std::uint32_t>(compiled.columns.size());
                compiled.columns.push_back(x_column(q));
            }
            if (letter != PauliLetter::Z) { // X or Y: symplectic vs Z cols
                z_slot[q] =
                    static_cast<std::uint32_t>(compiled.columns.size());
                compiled.columns.push_back(z_column(q));
            }
        }
        for (const std::size_t t : group.term_indices) {
            const PauliString& string = op.terms()[t].string;
            CompiledTerm term;
            term.phase = string.phase_exponent();
            term.term_index = static_cast<std::uint32_t>(t);
            term.first_op = static_cast<std::uint32_t>(ops_.size());
            for (std::size_t q = 0; q < num_qubits_; ++q) {
                if (string.x_bit(q)) {
                    CAFQA_ASSERT(z_slot[q] != UINT32_MAX,
                                 "term support outside its group basis");
                    ops_.push_back(z_slot[q]);
                }
                if (string.z_bit(q)) {
                    CAFQA_ASSERT(x_slot[q] != UINT32_MAX,
                                 "term support outside its group basis");
                    ops_.push_back(x_slot[q]);
                }
            }
            term.num_ops =
                static_cast<std::uint32_t>(ops_.size()) - term.first_op;
            compiled.terms.push_back(term);
        }
        groups_.push_back(std::move(compiled));
    }
}

void
StabilizerExpectationEngine::evaluate_group(const SymplecticTableau& tableau,
                                            const CompiledGroup& group,
                                            Scratch& scratch) const
{
    std::int8_t* results = scratch.results.data();
    const std::size_t words = tableau.words();
    const std::size_t cols = group.columns.size();
    scratch.stab.resize(cols * words);
    scratch.destab.resize(cols * words);
    scratch.anti.resize(words);
    scratch.sel.resize(words);

    // Gather the group's basis columns once; `touched` accumulates the
    // shared-support mask over the stabilizer plane — when it stays
    // zero, no stabilizer row meets the group's basis, every term
    // trivially commutes with every generator, and the per-term
    // screening XOR pass can be skipped for the whole group.
    std::uint64_t touched = 0;
    for (std::size_t c = 0; c < cols; ++c) {
        const std::uint32_t ref = group.columns[c];
        const std::size_t q = ref >> 1;
        const std::uint64_t* stab_src =
            (ref & 1) ? tableau.z_stab(q) : tableau.x_stab(q);
        const std::uint64_t* destab_src =
            (ref & 1) ? tableau.z_destab(q) : tableau.x_destab(q);
        for (std::size_t w = 0; w < words; ++w) {
            scratch.stab[c * words + w] = stab_src[w];
            scratch.destab[c * words + w] = destab_src[w];
            touched |= stab_src[w];
        }
    }
    const bool screen = touched != 0;

    for (const CompiledTerm& term : group.terms) {
        std::fill(scratch.sel.begin(), scratch.sel.end(), 0);
        std::uint64_t any_anti = 0;
        if (screen) {
            std::fill(scratch.anti.begin(), scratch.anti.end(), 0);
            for (std::uint32_t o = 0; o < term.num_ops; ++o) {
                const std::uint32_t slot = ops_[term.first_op + o];
                const std::uint64_t* col =
                    scratch.stab.data() + slot * words;
                for (std::size_t w = 0; w < words; ++w) {
                    scratch.anti[w] ^= col[w];
                }
            }
            for (std::size_t w = 0; w < words; ++w) {
                any_anti |= scratch.anti[w];
            }
        }
        if (any_anti != 0) {
            results[term.term_index] = 0; // anticommutes with a generator
            continue;
        }
        for (std::uint32_t o = 0; o < term.num_ops; ++o) {
            const std::uint32_t slot = ops_[term.first_op + o];
            const std::uint64_t* col = scratch.destab.data() + slot * words;
            for (std::size_t w = 0; w < words; ++w) {
                scratch.sel[w] ^= col[w];
            }
        }
        const int product_phase =
            stabilizer_product_phase(tableau, scratch.sel.data());
        const int diff =
            (static_cast<int>(term.phase) + 4 - product_phase) & 3;
        CAFQA_ASSERT((diff & 1) == 0,
                     "commuting Pauli is not in the stabilizer group");
        results[term.term_index] = diff == 0 ? 1 : -1;
    }
}

// ----------------------------------------------- transposed compilation

void
StabilizerExpectationEngine::compile_transposed(const PauliSum& op)
{
    term_words_ = (op.num_terms() + 63) / 64;
    term_x_planes_.assign(num_qubits_ * term_words_, 0);
    term_z_planes_.assign(num_qubits_ * term_words_, 0);
    term_kp0_.assign(term_words_, 0);
    term_kp1_.assign(term_words_, 0);

    for (std::size_t t = 0; t < op.num_terms(); ++t) {
        const PauliString& string = op.terms()[t].string;
        const std::size_t w = t / 64;
        const std::uint64_t bit = std::uint64_t{1} << (t % 64);
        const auto& xw = string.x_words();
        const auto& zw = string.z_words();
        for (std::size_t q = 0; q < num_qubits_; ++q) {
            if ((xw[q / 64] >> (q % 64)) & 1) {
                term_x_planes_[q * term_words_ + w] |= bit;
            }
            if ((zw[q / 64] >> (q % 64)) & 1) {
                term_z_planes_[q * term_words_ + w] |= bit;
            }
        }
        const std::uint8_t k = string.phase_exponent();
        if (k & 1) {
            term_kp0_[w] |= bit;
        }
        if (k & 2) {
            term_kp1_[w] |= bit;
        }
    }
}

double
StabilizerExpectationEngine::evaluate_transposed(
    const SymplecticTableau& tableau, Scratch& scratch) const
{
    const std::size_t n = num_qubits_;
    const std::size_t row_words = tableau.words();
    const std::size_t width = term_words_;

    scratch.sym_planes.assign(n * width, 0);
    scratch.sel_planes.assign(n * width, 0);
    scratch.masks.assign(4 * width, 0);
    scratch.cross_rows.assign(n * row_words, 0);
    std::uint64_t* screened = scratch.masks.data();
    std::uint64_t* ph0 = scratch.masks.data() + width;
    std::uint64_t* ph1 = scratch.masks.data() + 2 * width;
    std::uint64_t* cross = scratch.masks.data() + 3 * width;

    // Walk the tableau columns once: every stabilizer (destabilizer)
    // row r with a Z bit at qubit q anticommutes with exactly the terms
    // carrying X/Y there, i.e. XOR the term X plane of q into row r's
    // symplectic-product plane — 64 terms per word. The same sweep
    // accumulates the generators' pairwise cross-phase matrix,
    // M[r] ^= Xstab[q] for every Z bit of row r (M_rj = parity
    // |z_r & x_j|, the i^2 factor of multiplying generators r and j).
    for (std::size_t q = 0; q < n; ++q) {
        const std::uint64_t* term_x = term_x_planes_.data() + q * width;
        const std::uint64_t* term_z = term_z_planes_.data() + q * width;
        const std::uint64_t* zs = tableau.z_stab(q);
        const std::uint64_t* xs = tableau.x_stab(q);
        const std::uint64_t* zd = tableau.z_destab(q);
        const std::uint64_t* xd = tableau.x_destab(q);
        for (std::size_t rw = 0; rw < row_words; ++rw) {
            for (std::uint64_t bits = zs[rw]; bits != 0;
                 bits &= bits - 1) {
                const std::size_t r =
                    rw * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                std::uint64_t* sym = scratch.sym_planes.data() + r * width;
                for (std::size_t w = 0; w < width; ++w) {
                    sym[w] ^= term_x[w];
                }
                std::uint64_t* m = scratch.cross_rows.data() + r * row_words;
                for (std::size_t w = 0; w < row_words; ++w) {
                    m[w] ^= xs[w];
                }
            }
            for (std::uint64_t bits = xs[rw]; bits != 0;
                 bits &= bits - 1) {
                const std::size_t r =
                    rw * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                std::uint64_t* sym = scratch.sym_planes.data() + r * width;
                for (std::size_t w = 0; w < width; ++w) {
                    sym[w] ^= term_z[w];
                }
            }
            for (std::uint64_t bits = zd[rw]; bits != 0;
                 bits &= bits - 1) {
                const std::size_t r =
                    rw * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                std::uint64_t* sel = scratch.sel_planes.data() + r * width;
                for (std::size_t w = 0; w < width; ++w) {
                    sel[w] ^= term_x[w];
                }
            }
            for (std::uint64_t bits = xd[rw]; bits != 0;
                 bits &= bits - 1) {
                const std::size_t r =
                    rw * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                std::uint64_t* sel = scratch.sel_planes.data() + r * width;
                for (std::size_t w = 0; w < width; ++w) {
                    sel[w] ^= term_z[w];
                }
            }
        }
    }

    // A term is screened to zero when it anticommutes with any
    // stabilizer generator.
    for (std::size_t r = 0; r < n; ++r) {
        const std::uint64_t* sym = scratch.sym_planes.data() + r * width;
        for (std::size_t w = 0; w < width; ++w) {
            screened[w] |= sym[w];
        }
    }

    // Phase accumulation: add generator r's own phase (0..3) into the
    // packed two-bit per-term counters wherever r is selected.
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t rw = r / 64;
        const std::uint64_t bit = std::uint64_t{1} << (r % 64);
        const int phase =
            ((tableau.phase0_stab()[rw] & bit) ? 1 : 0) +
            ((tableau.phase1_stab()[rw] & bit) ? 2 : 0);
        if (phase == 0) {
            continue;
        }
        const std::uint64_t* sel = scratch.sel_planes.data() + r * width;
        for (std::size_t w = 0; w < width; ++w) {
            const std::uint64_t s = sel[w];
            if (phase & 1) {
                const std::uint64_t carry = ph0[w] & s;
                ph0[w] ^= s;
                ph1[w] ^= carry;
            }
            if (phase == 2 || phase == 3) {
                ph1[w] ^= s;
            }
        }
    }

    // Cross phases: multiplying the selected generators r < j
    // contributes 2 per pair with M_rj = 1; parity per term is the XOR
    // of sel[r] & sel[j] over those pairs.
    for (std::size_t r = 0; r < n; ++r) {
        const std::uint64_t* m = scratch.cross_rows.data() + r * row_words;
        const std::uint64_t* sel_r = scratch.sel_planes.data() + r * width;
        for (std::size_t rw = 0; rw < row_words; ++rw) {
            for (std::uint64_t bits = m[rw]; bits != 0; bits &= bits - 1) {
                const std::size_t j =
                    rw * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                if (j <= r) {
                    continue; // upper triangle only (M is symmetric)
                }
                const std::uint64_t* sel_j =
                    scratch.sel_planes.data() + j * width;
                for (std::size_t w = 0; w < width; ++w) {
                    cross[w] ^= sel_r[w] & sel_j[w];
                }
            }
        }
    }

    // Sign: diff = k_term - k_product mod 4 is even for every
    // unscreened term (they lie in +/- the stabilizer group), so the
    // low bits must agree and diff == 2 exactly when the high bits
    // differ. The +/-coefficients accumulate here directly, visiting
    // only the unscreened bits in ascending term order — the same
    // order, and therefore the same double, as the per-term reduce().
    double total = 0.0;
    for (std::size_t w = 0; w < width; ++w) {
        const std::uint64_t valid =
            (w + 1 == width && coefficients_.size() % 64 != 0)
                ? ((std::uint64_t{1} << (coefficients_.size() % 64)) - 1)
                : ~std::uint64_t{0};
        const std::uint64_t live = ~screened[w] & valid;
        CAFQA_ASSERT(((ph0[w] ^ term_kp0_[w]) & live) == 0,
                     "commuting Pauli is not in the stabilizer group");
        const std::uint64_t negative =
            (ph1[w] ^ cross[w] ^ term_kp1_[w]) & live;
        for (std::uint64_t bits = live; bits != 0; bits &= bits - 1) {
            const std::size_t t =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            const double coeff = coefficients_[t];
            total += (negative >> (t % 64)) & 1 ? -coeff : coeff;
        }
    }
    return total;
}

// ------------------------------------------------------------ evaluation

double
StabilizerExpectationEngine::reduce(const std::int8_t* results) const
{
    // Accumulate in original term order, skipping screened terms, which
    // reproduces the legacy row-based loop bit-for-bit.
    double total = 0.0;
    for (std::size_t t = 0; t < coefficients_.size(); ++t) {
        if (results[t] != 0) {
            total += coefficients_[t] * results[t];
        }
    }
    return total;
}

StabilizerExpectationEngine::Scratch&
StabilizerExpectationEngine::thread_scratch()
{
    // assign()/resize() keep capacity across calls, so steady state
    // allocates nothing.
    static thread_local Scratch scratch;
    return scratch;
}

double
StabilizerExpectationEngine::expectation(
    const SymplecticTableau& tableau) const
{
    CAFQA_REQUIRE(tableau.num_qubits() == num_qubits_,
                  "operator qubit count mismatch");
    Scratch& scratch = thread_scratch();
    if (transposed_) {
        return evaluate_transposed(tableau, scratch);
    }
    // No zero-fill needed: every term belongs to exactly one group,
    // and evaluate_group writes all of its terms.
    scratch.results.resize(coefficients_.size());
    for (const CompiledGroup& group : groups_) {
        evaluate_group(tableau, group, scratch);
    }
    return reduce(scratch.results.data());
}

} // namespace cafqa
