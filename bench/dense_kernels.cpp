/**
 * Dense-kernel microbench: the library's compiled statevector
 * expectation, row-contiguous density prepare, compiled sampled
 * estimator and compiled Lanczos solve against the reference kernels
 * they replaced (tests/reference_dense.hpp), the pooled sampled
 * estimator against the reference too, and the pooled Lanczos solve
 * against the serial one, timed in the same run.
 *
 * Kernels are the three dense tunes of the end-to-end benchmark:
 * - `h2o_statevector`: <H> of the H2O Hamiltonian on a prepared state,
 *   with the sum compiled once as `IdealEvaluator` keeps it;
 * - `tfim8_density`: one noise-free density-matrix prepare of the
 *   tfim:chain-8 ansatz;
 * - `h6_sampled`: one 4096-shot `SampledEvaluator` evaluation of the H6
 *   Hamiltonian, against the reference loop fed by a `std::mt19937_64`
 *   with the same seed (both streams advance in step, round after
 *   round);
 * - `h6_sampled_pooled`: the same evaluation at the all-zero Clifford
 *   point with the measured groups split over a 2-worker pool, against
 *   the reference loop; the ratio holds the in-tree engine's block
 *   draws and the split, and drops below the gate without either;
 * - `beh2_lanczos`: the exact ground energy of BeH2 at the library's
 *   default Lanczos settings, against the per-term loop with a full
 *   eigensolve per iteration; energy and iteration count are compared;
 * - `h2o_lanczos_pooled`: a Lanczos solve of H2O with its matvecs split
 *   over a 2-worker pool, against the serial library solve. At 2.6 A,
 *   capped at 100 iterations, the lowest Ritz value is still moving, so
 *   bisection skips the serial Jacobi eigensolve on all but the last
 *   iterations and the ratio is the split matvec's gain, which a
 *   dropped pool path loses.
 * Every round compares the two results bit for bit; any difference
 * exits 1.
 *
 * Each round times one reference call and one library call back to
 * back; a kernel reports the fastest of its rounds for each, which
 * discards rounds a busy host slowed down. The gated metric is the
 * same-run ratio `throughput_speedup_vs_reference` (reference time /
 * library time), which can be gated tightly (`bench_check --tolerance
 * 1.5`). The absolute `*_ms_per_call` times are informational; their
 * names end in neither `_ms` nor `_us`, so `bench_check` does not gate
 * them.
 *
 * Usage: dense_kernels [--json PATH]  (starts one 2-worker pool)
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/reference_dense.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/evaluator.hpp"
#include "core/sampled_evaluator.hpp"
#include "pauli/compiled_pauli_sum.hpp"
#include "problems/molecule_factory.hpp"
#include "problems/problem.hpp"
#include "statevector/lanczos.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

[[noreturn]] void
fail(const std::string& message)
{
    std::cerr << "dense_kernels: " << message << '\n';
    std::exit(1);
}

std::vector<double>
random_params(std::size_t count, std::uint64_t seed)
{
    cafqa::Rng rng(seed);
    std::vector<double> params(count);
    for (auto& p : params) {
        p = rng.uniform_real(-3.2, 3.2);
    }
    return params;
}

/** One timed kernel: each call runs the kernel once and returns a
 *  value that must match the other side's bit for bit. */
struct Kernel
{
    const char* name;
    int rounds;
    std::function<std::vector<double>()> reference;
    std::function<std::vector<double>()> library;
};

double
time_ms(const std::function<std::vector<double>()>& call,
        std::vector<double>& out)
{
    const auto start = clock_type::now();
    out = call();
    return std::chrono::duration<double, std::milli>(clock_type::now() -
                                                     start)
        .count();
}

/** The density matrix as a flat list of doubles (re, im per entry). */
template <typename Matrix>
std::vector<double>
flatten(Matrix& rho)
{
    std::vector<double> out;
    out.reserve(2 * rho.dim() * rho.dim());
    for (std::size_t r = 0; r < rho.dim(); ++r) {
        for (std::size_t c = 0; c < rho.dim(); ++c) {
            out.push_back(rho.at(r, c).real());
            out.push_back(rho.at(r, c).imag());
        }
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_dense.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc) {
                fail("--json requires a value");
            }
            json_path = argv[++i];
        } else {
            fail("unknown option '" + arg + "'");
        }
    }

    // H2O statevector expectation.
    const auto h2o = cafqa::problems::make_problem("molecule:H2O");
    cafqa::IdealEvaluator ideal(h2o.ansatz);
    ideal.prepare(random_params(h2o.ansatz.num_params(), 1));
    const cafqa::CompiledPauliSum h2o_compiled(h2o.hamiltonian());

    // tfim-8 noise-free density prepare.
    const auto tfim = cafqa::problems::make_problem("tfim:chain-8");
    const auto tfim_params = random_params(tfim.ansatz.num_params(), 2);

    // H6 sampled evaluation: both sides start from the same seed.
    const auto h6 = cafqa::problems::make_problem("molecule:H6");
    const auto h6_params = random_params(h6.ansatz.num_params(), 3);
    constexpr std::size_t kShots = 4096;
    constexpr std::uint64_t kSeed = 11;
    cafqa::SampledEvaluator sampled(h6.ansatz, kShots, kSeed);
    sampled.prepare(h6_params);
    const cafqa::Statevector h6_state =
        cafqa::reference::prepare(h6.ansatz, h6_params);
    std::mt19937_64 oracle_rng(kSeed);

    // The same over the pool, at the Clifford point; constructed after
    // the pool below.
    const std::vector<double> h6_clifford(h6.ansatz.num_params(), 0.0);
    const cafqa::Statevector h6_clifford_state =
        cafqa::reference::prepare(h6.ansatz, h6_clifford);
    std::mt19937_64 pooled_oracle_rng(kSeed);

    // BeH2 exact reference: the solve `molecule:BeH2` runs.
    const auto beh2 = cafqa::problems::make_problem("molecule:BeH2");
    const auto energy_and_iterations = [](const cafqa::GroundState& g) {
        return std::vector<double>{g.energy,
                                   static_cast<double>(g.iterations)};
    };

    // H2O at 2.6 A, capped: serial and over a 2-worker pool.
    const cafqa::PauliSum h2o_stretched =
        cafqa::problems::make_molecular_system("H2O", 2.6).hamiltonian;
    cafqa::LanczosOptions capped;
    capped.max_iterations = 100;
    cafqa::ThreadPool pool(2);
    cafqa::LanczosOptions pooled = capped;
    pooled.pool = &pool;
    cafqa::SampledEvaluator pooled_sampled(h6.ansatz, kShots, kSeed, &pool);
    pooled_sampled.prepare(h6_clifford);

    const Kernel kernels[] = {
        {"h2o_statevector", 15,
         [&] {
             return std::vector<double>{
                 cafqa::reference::statevector_expectation(
                     ideal.state(), h2o.hamiltonian())};
         },
         [&] {
             return std::vector<double>{
                 ideal.state().expectation(h2o_compiled)};
         }},
        {"tfim8_density", 15,
         [&] {
             auto rho = cafqa::reference::simulate_noisy(
                 tfim.ansatz, tfim_params, cafqa::NoiseModel{});
             return flatten(rho);
         },
         [&] {
             auto rho = cafqa::simulate_noisy(tfim.ansatz, tfim_params,
                                              cafqa::NoiseModel{});
             return flatten(rho);
         }},
        {"h6_sampled", 5,
         [&] {
             return std::vector<double>{
                 cafqa::reference::sampled_expectation(
                     h6_state, h6.hamiltonian(), kShots, oracle_rng)};
         },
         [&] {
             return std::vector<double>{
                 sampled.expectation(h6.hamiltonian())};
         }},
        {"h6_sampled_pooled", 5,
         [&] {
             return std::vector<double>{
                 cafqa::reference::sampled_expectation(
                     h6_clifford_state, h6.hamiltonian(), kShots,
                     pooled_oracle_rng)};
         },
         [&] {
             return std::vector<double>{
                 pooled_sampled.expectation(h6.hamiltonian())};
         }},
        {"beh2_lanczos", 3,
         [&] {
             return energy_and_iterations(
                 cafqa::reference::lanczos_ground_state(beh2.hamiltonian()));
         },
         [&] {
             return energy_and_iterations(
                 cafqa::lanczos_ground_state(beh2.hamiltonian()));
         }},
        {"h2o_lanczos_pooled", 3,
         [&] {
             return energy_and_iterations(
                 cafqa::lanczos_ground_state(h2o_stretched, capped));
         },
         [&] {
             return energy_and_iterations(
                 cafqa::lanczos_ground_state(h2o_stretched, pooled));
         }},
    };

    std::ostringstream json;
    json << "{\"bench\":\"dense_kernels\",\"kernels\":[";
    std::cout << "kernel              reference ms  library ms  speedup\n";
    bool first = true;
    for (const Kernel& kernel : kernels) {
        double best_ref = 0.0;
        double best_lib = 0.0;
        for (int r = 0; r < kernel.rounds; ++r) {
            std::vector<double> want;
            std::vector<double> got;
            const double ref = time_ms(kernel.reference, want);
            const double lib = time_ms(kernel.library, got);
            if (want.size() != got.size() ||
                std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(double)) != 0) {
                fail(std::string(kernel.name) + ": round " +
                     std::to_string(r) +
                     " differs from the reference kernel");
            }
            if (r == 0 || ref < best_ref) {
                best_ref = ref;
            }
            if (r == 0 || lib < best_lib) {
                best_lib = lib;
            }
        }
        const double speedup = best_ref / best_lib;
        const std::string name = kernel.name;
        std::cout << name << std::string(20 - name.size(), ' ') << best_ref
                  << "  " << best_lib << "  " << speedup << "x\n";
        json << (first ? "" : ",") << "{\"kernel\":\"" << name
             << "\",\"rounds\":" << kernel.rounds
             << ",\"reference_ms_per_call\":" << best_ref
             << ",\"library_ms_per_call\":" << best_lib
             << ",\"throughput_speedup_vs_reference\":" << speedup << "}";
        first = false;
    }
    json << "]}\n";

    std::ofstream out(json_path);
    if (!out) {
        fail("cannot write '" + json_path + "'");
    }
    out << json.str();
    return 0;
}
