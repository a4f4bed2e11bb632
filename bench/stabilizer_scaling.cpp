/**
 * Scaling study of the stabilizer hot path: legacy row-based Tableau
 * term loop vs the column-packed SymplecticTableau +
 * StabilizerExpectationEngine batched pass.
 *
 * Sweeps molecule Hamiltonians, random Clifford circuits with random
 * Hermitian Pauli sums, and MaxCut instances up to 256+ qubits; every
 * comparison first asserts the two paths produce the *identical*
 * energy, then times them. An end-to-end pipeline comparison runs the
 * Clifford-search stage on a bench-registered "legacy-clifford"
 * backend vs the production "clifford" backend (same seed, identical
 * trajectories) and reports wall time.
 *
 * Results print as tables and are additionally written as
 * machine-readable JSON (default `BENCH_stabilizer.json`, override
 * with `--json <path>`) so CI can archive a perf baseline per commit.
 * `--quick` forces CI sizing regardless of CAFQA_BENCH_SCALE.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "../tests/reference_tableau.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "problems/maxcut.hpp"
#include "stabilizer/circuit_replay.hpp"
#include "stabilizer/expectation_engine.hpp"
#include "stabilizer/symplectic_tableau.hpp"

namespace cafqa::bench {
namespace {

using reference::Tableau;

double sink = 0.0; // defeats dead-code elimination across timed calls

/** Microseconds per invocation, growing reps until the run is long
 *  enough to trust the clock. */
template <typename F>
double
time_us(F&& fn, double min_ms)
{
    using clock = std::chrono::steady_clock;
    std::size_t reps = 1;
    for (;;) {
        const auto start = clock::now();
        for (std::size_t i = 0; i < reps; ++i) {
            fn();
        }
        const double ms =
            std::chrono::duration<double, std::milli>(clock::now() - start)
                .count();
        if (ms >= min_ms || reps >= (std::size_t{1} << 24)) {
            return ms * 1000.0 / static_cast<double>(reps);
        }
        reps = (ms <= 0.01)
                   ? reps * 16
                   : static_cast<std::size_t>(
                         static_cast<double>(reps) * (min_ms / ms) * 1.3) +
                         1;
    }
}

/** Legacy reference path: per-term row-based evaluation. */
double
legacy_energy(const Tableau& tableau, const PauliSum& op)
{
    double total = 0.0;
    for (const auto& term : op.terms()) {
        const int e = tableau.expectation(term.string);
        if (e != 0) {
            total += term.coefficient.real() * e;
        }
    }
    return total;
}

struct EvalRow
{
    std::string name;
    std::size_t qubits = 0;
    std::size_t terms = 0;
    std::size_t groups = 0;
    double legacy_us = 0.0;
    double packed_us = 0.0;
    double parallel_us = 0.0; ///< 0 when not measured
    double speedup() const { return legacy_us / packed_us; }
};

struct GateRow
{
    std::string name;
    std::size_t qubits = 0;
    std::size_t gates = 0;
    double legacy_us = 0.0;
    double packed_us = 0.0;
};

struct PipelineRow
{
    std::string name;
    std::size_t qubits = 0;
    std::size_t evaluations = 0;
    double legacy_ms = 0.0;
    double packed_ms = 0.0;
    double energy = 0.0;
};

/**
 * One eval-path comparison: prepare the same stabilizer state on both
 * representations, assert identical energies, then time the batched
 * pass against the legacy term loop.
 */
EvalRow
compare_eval(const std::string& name, const Circuit& circuit,
             const std::vector<int>& steps, const PauliSum& op,
             double min_ms, bool measure_parallel)
{
    Tableau legacy(circuit.num_qubits());
    replay_circuit_steps(legacy, circuit, steps);
    SymplecticTableau packed(circuit.num_qubits());
    replay_circuit_steps(packed, circuit, steps);

    const StabilizerExpectationEngine engine(op);
    const double reference = legacy_energy(legacy, op);
    const double batched = engine.expectation(packed);
    if (batched != reference) {
        throw std::logic_error("packed energy diverges from legacy on " +
                               name);
    }

    EvalRow row;
    row.name = name;
    row.qubits = circuit.num_qubits();
    row.terms = op.num_terms();
    row.groups = engine.num_groups();
    row.legacy_us = time_us([&] { sink += legacy_energy(legacy, op); },
                            min_ms);
    row.packed_us =
        time_us([&] { sink += engine.expectation(packed); }, min_ms);
    if (measure_parallel && ThreadPool::shared().size() > 1) {
        ThreadPool& pool = ThreadPool::shared();
        if (engine.expectation(packed, pool) != reference) {
            throw std::logic_error(
                "parallel energy diverges from legacy on " + name);
        }
        row.parallel_us = time_us(
            [&] { sink += engine.expectation(packed, pool); }, min_ms);
    }
    return row;
}

GateRow
compare_gates(const std::string& name, const Circuit& circuit,
              const std::vector<int>& steps, double min_ms)
{
    GateRow row;
    row.name = name;
    row.qubits = circuit.num_qubits();
    row.gates = circuit.ops().size();
    row.legacy_us = time_us(
        [&] {
            Tableau t(circuit.num_qubits());
            replay_circuit_steps(t, circuit, steps);
        },
        min_ms);
    row.packed_us = time_us(
        [&] {
            SymplecticTableau t(circuit.num_qubits());
            replay_circuit_steps(t, circuit, steps);
        },
        min_ms);
    return row;
}

std::vector<int>
random_steps(std::size_t count, Rng& rng)
{
    std::vector<int> steps(count);
    for (auto& s : steps) {
        s = static_cast<int>(rng.uniform_int(0, 3));
    }
    return steps;
}

Circuit
random_clifford_circuit(std::size_t n, std::size_t gates, Rng& rng)
{
    Circuit circuit(n);
    for (std::size_t g = 0; g < gates; ++g) {
        const auto q = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        auto q2 = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (q2 == q) {
            q2 = (q + 1) % n;
        }
        switch (rng.uniform_int(0, 5)) {
          case 0: circuit.h(q); break;
          case 1: circuit.s(q); break;
          case 2: circuit.sdg(q); break;
          case 3: circuit.x(q); break;
          case 4: circuit.cx(q, q2); break;
          default: circuit.cz(q, q2); break;
        }
    }
    return circuit;
}

PauliSum
random_hamiltonian(std::size_t n, std::size_t terms, Rng& rng)
{
    PauliSum op(n);
    for (std::size_t t = 0; t < terms; ++t) {
        PauliString p(n);
        // Mix of local and extensive terms, like mapped molecular sums.
        const std::size_t weight =
            (t % 4 == 0) ? n / 2
                         : 1 + static_cast<std::size_t>(
                                   rng.uniform_int(0, 3));
        for (std::size_t k = 0; k < weight; ++k) {
            const auto q = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
            p.set_letter(q,
                         static_cast<PauliLetter>(rng.uniform_int(1, 3)));
        }
        op.add_term(rng.uniform_real(-1.0, 1.0), p);
    }
    op.simplify();
    return op;
}

/** Bench-local legacy backend so the whole pipeline can run on the
 *  row-based path for the end-to-end comparison. */
class LegacyCliffordEvaluator final : public DiscreteBackend
{
  public:
    explicit LegacyCliffordEvaluator(Circuit ansatz)
        : ansatz_(std::move(ansatz))
    {}

    std::string_view kind() const override { return "legacy-clifford"; }
    std::size_t num_qubits() const override { return ansatz_.num_qubits(); }
    std::size_t num_params() const override { return ansatz_.num_params(); }

    void prepare(const std::vector<int>& steps) override
    {
        tableau_.emplace(ansatz_.num_qubits());
        replay_circuit_steps(*tableau_, ansatz_, steps);
    }

    double expectation(const PauliSum& op) const override
    {
        if (!tableau_) {
            throw std::invalid_argument("prepare() has not been called");
        }
        return legacy_energy(*tableau_, op);
    }

    std::unique_ptr<Backend> clone() const override
    {
        return std::make_unique<LegacyCliffordEvaluator>(*this);
    }

  private:
    Circuit ansatz_;
    std::optional<Tableau> tableau_;
};

PipelineRow
compare_pipeline(const problems::MolecularSystem& system)
{
    PipelineRow row;
    row.name = system.name;
    row.qubits = system.num_qubits;

    double energies[2] = {0.0, 0.0};
    double wall_ms[2] = {0.0, 0.0};
    const char* backends[2] = {"legacy-clifford", "clifford"};
    for (int side = 0; side < 2; ++side) {
        PipelineConfig config = molecular_pipeline_config(system, 7);
        config.search_backend = backends[side];
        // Annealing is evaluation-bound (no surrogate-model fitting),
        // so the stage wall time isolates the simulator cost.
        config.search_optimizer = optimizer_config("anneal");
        CafqaPipeline pipeline(std::move(config));
        const auto start = std::chrono::steady_clock::now();
        const CafqaResult& result = pipeline.run_clifford_search();
        wall_ms[side] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        energies[side] = result.best_energy;
        row.evaluations = result.history.size();
    }
    if (energies[0] != energies[1]) {
        throw std::logic_error(
            "legacy and packed pipelines diverged on " + system.name);
    }
    row.legacy_ms = wall_ms[0];
    row.packed_ms = wall_ms[1];
    row.energy = energies[1];
    return row;
}

std::string
json_escape_number(double v)
{
    std::ostringstream out;
    out.precision(12);
    out << v;
    return out.str();
}

void
write_json(const std::string& path, bool quick,
           const std::vector<EvalRow>& evals,
           const std::vector<GateRow>& gates,
           const std::vector<PipelineRow>& pipelines)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"stabilizer_scaling\",\n  \"scale\": \""
        << (quick ? "quick" : "paper") << "\",\n  \"threads\": "
        << ThreadPool::shared().size() << ",\n  \"eval\": [\n";
    for (std::size_t i = 0; i < evals.size(); ++i) {
        const EvalRow& r = evals[i];
        out << "    {\"case\": \"" << r.name << "\", \"qubits\": "
            << r.qubits << ", \"terms\": " << r.terms
            << ", \"groups\": " << r.groups << ", \"legacy_us\": "
            << json_escape_number(r.legacy_us) << ", \"packed_us\": "
            << json_escape_number(r.packed_us) << ", \"parallel_us\": "
            << json_escape_number(r.parallel_us) << ", \"speedup\": "
            << json_escape_number(r.speedup()) << "}"
            << (i + 1 < evals.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"gates\": [\n";
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const GateRow& r = gates[i];
        out << "    {\"case\": \"" << r.name << "\", \"qubits\": "
            << r.qubits << ", \"gates\": " << r.gates
            << ", \"legacy_us\": " << json_escape_number(r.legacy_us)
            << ", \"packed_us\": " << json_escape_number(r.packed_us)
            << ", \"speedup\": "
            << json_escape_number(r.legacy_us / r.packed_us) << "}"
            << (i + 1 < gates.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"pipeline\": [\n";
    for (std::size_t i = 0; i < pipelines.size(); ++i) {
        const PipelineRow& r = pipelines[i];
        out << "    {\"case\": \"" << r.name << "\", \"qubits\": "
            << r.qubits << ", \"evaluations\": " << r.evaluations
            << ", \"legacy_ms\": " << json_escape_number(r.legacy_ms)
            << ", \"packed_ms\": " << json_escape_number(r.packed_ms)
            << ", \"speedup\": "
            << json_escape_number(r.legacy_ms / r.packed_ms)
            << ", \"energy\": " << json_escape_number(r.energy) << "}"
            << (i + 1 < pipelines.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

int
run(int argc, char** argv)
{
    bool quick = scale() == Scale::Quick;
    std::string json_path = "BENCH_stabilizer.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::cerr << "usage: stabilizer_scaling [--quick] "
                         "[--json <path>]\n";
            return 1;
        }
    }

    banner("stabilizer_scaling: packed symplectic tableau vs legacy "
           "row-based path");
    const double min_ms = quick ? 30.0 : 200.0;
    Rng rng(2023);

    std::vector<EvalRow> evals;
    std::vector<GateRow> gates;
    std::vector<PipelineRow> pipelines;

    // ---- Molecule Hamiltonians on their EfficientSU2 ansatz states.
    std::vector<std::string> molecules = {"H2", "LiH"};
    if (!quick) {
        molecules.push_back("H6");
        molecules.push_back("H2O");
    } else {
        molecules.push_back("H2O"); // the 12-qubit system of Table 1
    }
    for (const std::string& name : molecules) {
        const auto info = problems::molecule_info(name);
        const auto system = problems::make_molecular_system(
            name, info.equilibrium_bond_length);
        const auto steps = random_steps(system.ansatz.num_params(), rng);
        evals.push_back(compare_eval(name, system.ansatz, steps,
                                     system.hamiltonian, min_ms, false));
        gates.push_back(
            compare_gates(name, system.ansatz, steps, min_ms));
    }

    // ---- Random Clifford circuits + random Hermitian sums.
    for (const std::size_t n :
         quick ? std::vector<std::size_t>{32, 64, 128, 256}
               : std::vector<std::size_t>{32, 64, 128, 256, 384}) {
        const Circuit circuit = random_clifford_circuit(n, 8 * n, rng);
        const PauliSum op = random_hamiltonian(n, 4 * n, rng);
        const std::string name =
            "random-" + std::to_string(n) + "q";
        evals.push_back(compare_eval(name, circuit, {}, op, min_ms,
                                     n >= 128));
        gates.push_back(compare_gates(name, circuit, {}, min_ms));
    }

    // ---- MaxCut instances with QAOA ansatze.
    {
        const auto ring = problems::make_ring_maxcut(64);
        const Circuit ansatz = problems::make_qaoa_ansatz(ring, 2);
        const auto steps = random_steps(ansatz.num_params(), rng);
        evals.push_back(compare_eval("maxcut-ring-64", ansatz, steps,
                                     ring.hamiltonian, min_ms, false));
    }
    {
        const auto graph =
            problems::make_random_maxcut(256, 0.03, 11, "er-256");
        const Circuit ansatz = problems::make_qaoa_ansatz(graph, 2);
        const auto steps = random_steps(ansatz.num_params(), rng);
        evals.push_back(compare_eval("maxcut-er-256", ansatz, steps,
                                     graph.hamiltonian, min_ms, true));
    }

    // ---- End-to-end Clifford-search stage, legacy vs packed backend.
    register_backend("legacy-clifford", [](const BackendConfig& config) {
        return std::make_unique<LegacyCliffordEvaluator>(config.ansatz);
    });
    for (const std::string& name :
         quick ? std::vector<std::string>{"H2"}
               : std::vector<std::string>{"H2", "LiH", "H2O"}) {
        const auto info = problems::molecule_info(name);
        pipelines.push_back(compare_pipeline(
            problems::make_molecular_system(
                name, info.equilibrium_bond_length)));
    }

    // ---- Report.
    Table eval_table("Batched Pauli-sum evaluation (one prepared state)");
    eval_table.set_header({"case", "qubits", "terms", "groups",
                           "legacy us", "packed us", "parallel us",
                           "speedup"});
    for (const EvalRow& r : evals) {
        eval_table.add_row(
            {r.name, std::to_string(r.qubits), std::to_string(r.terms),
             std::to_string(r.groups), Table::num(r.legacy_us, 2),
             Table::num(r.packed_us, 2),
             r.parallel_us > 0 ? Table::num(r.parallel_us, 2) : "-",
             Table::num(r.speedup(), 1) + "x"});
    }
    eval_table.print(std::cout);

    Table gate_table("Circuit replay (tableau construction)");
    gate_table.set_header({"case", "qubits", "gates", "legacy us",
                           "packed us", "speedup"});
    for (const GateRow& r : gates) {
        gate_table.add_row({r.name, std::to_string(r.qubits),
                            std::to_string(r.gates),
                            Table::num(r.legacy_us, 2),
                            Table::num(r.packed_us, 2),
                            Table::num(r.legacy_us / r.packed_us, 1) +
                                "x"});
    }
    gate_table.print(std::cout);

    Table pipe_table("End-to-end Clifford-search stage (anneal)");
    pipe_table.set_header({"case", "qubits", "evals", "legacy ms",
                           "packed ms", "speedup"});
    for (const PipelineRow& r : pipelines) {
        pipe_table.add_row({r.name, std::to_string(r.qubits),
                            std::to_string(r.evaluations),
                            Table::num(r.legacy_ms, 1),
                            Table::num(r.packed_ms, 1),
                            Table::num(r.legacy_ms / r.packed_ms, 1) +
                                "x"});
    }
    pipe_table.print(std::cout);

    write_json(json_path, quick, evals, gates, pipelines);
    std::cout << "\nJSON written to " << json_path << " (sink " << sink
              << ")\n";
    return 0;
}

} // namespace
} // namespace cafqa::bench

int
main(int argc, char** argv)
{
    return cafqa::bench::run(argc, argv);
}
