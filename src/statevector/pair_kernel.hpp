/**
 * @file
 * The 2x2 complex mix shared by the statevector and density-matrix gate
 * kernels, on complex values stored as interleaved (re, im) doubles
 * (std::complex<double> is layout-compatible with double[2]).
 *
 * Each product is std::complex's finite path and each sum adds lane by
 * lane, so `mix_pairs` is bit-identical to `m00 * a0 + m01 * a1`
 * written with std::complex, and, given the conjugated matrix, to
 * `a0 * conj(m00) + a1 * conj(m01)` (IEEE products and sums commute).
 * Skipping std::complex's NaN-recovery branch lets the loops run
 * straight through.
 */
#ifndef CAFQA_STATEVECTOR_PAIR_KERNEL_HPP
#define CAFQA_STATEVECTOR_PAIR_KERNEL_HPP

#include <array>
#include <complex>
#include <cstddef>
#include <cstring>

namespace cafqa {

/** (re, im) of one complex value as a two-lane vector. Lane-wise
 *  products and sums round exactly like the scalar ones. */
using Lanes = double __attribute__((vector_size(16)));

inline Lanes
load_lanes(const double* p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store_lanes(double* p, Lanes v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * A 2x2 complex matrix, entry k = (mr, mi) kept as re[k] = (mr, mr)
 * and im[k] = (-mi, mi), so that
 *   m * a = re[k] * (ar, ai) + im[k] * (ai, ar)
 *         = (mr*ar + (-mi)*ai, mr*ai + mi*ar),
 * which is std::complex's finite path (mr*ar - mi*ai, mr*ai + mi*ar)
 * exactly: negating a product is exact, and x + (-y) is x - y.
 */
struct Matrix2
{
    std::array<Lanes, 4> re;
    std::array<Lanes, 4> im;
};

/** Entries m00, m01, m10, m11 of `m`, or of its entrywise conjugate. */
inline Matrix2
to_matrix2(const std::array<std::complex<double>, 4>& m,
           bool conjugate = false)
{
    Matrix2 out{};
    for (std::size_t k = 0; k < 4; ++k) {
        const double mi = conjugate ? -m[k].imag() : m[k].imag();
        out.re[k] = Lanes{m[k].real(), m[k].real()};
        out.im[k] = Lanes{-mi, mi};
    }
    return out;
}

/** out0 = m00 a0 + m01 a1 and out1 = m10 a0 + m11 a1 for `n`
 *  consecutive pairs (a0 from `in0`, a1 from `in1`). Each output may
 *  alias its own input. */
inline void
mix_pairs(const Matrix2& m, const double* in0, const double* in1,
          double* out0, double* out1, std::size_t n)
{
    for (std::size_t i = 0; i < 2 * n; i += 2) {
        const Lanes a0 = load_lanes(in0 + i);
        const Lanes a1 = load_lanes(in1 + i);
        const Lanes s0 = __builtin_shufflevector(a0, a0, 1, 0);
        const Lanes s1 = __builtin_shufflevector(a1, a1, 1, 0);
        store_lanes(out0 + i, (m.re[0] * a0 + m.im[0] * s0) +
                                  (m.re[1] * a1 + m.im[1] * s1));
        store_lanes(out1 + i, (m.re[2] * a0 + m.im[2] * s0) +
                                  (m.re[3] * a1 + m.im[3] * s1));
    }
}

/** Mix every pair (i, i | bit) of the `dim` complex values at `v`
 *  (`bit` a power of two below `dim`), in place. */
inline void
mix_strided(const Matrix2& m, double* v, std::size_t dim, std::size_t bit)
{
    for (std::size_t base = 0; base < dim; base += 2 * bit) {
        double* lo = v + 2 * base;
        double* hi = v + 2 * (base + bit);
        mix_pairs(m, lo, hi, lo, hi, bit);
    }
}

} // namespace cafqa

#endif // CAFQA_STATEVECTOR_PAIR_KERNEL_HPP
