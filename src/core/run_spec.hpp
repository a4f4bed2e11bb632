/**
 * @file
 * Declarative run description: one `RunSpec` names a problem (by its
 * registry key, `problems/problem.hpp`) plus every pipeline knob the
 * CLI exposes, so a whole CAFQA run is a single string:
 *
 *   "problem=molecule:LiH?bond=2.4 warmup=200 iterations=300 tune=200"
 *
 * Two serialized forms round-trip through parse/serialize:
 *
 * - text: whitespace-separated `field=value` tokens (the `--spec`
 *   argument of `cafqa_cli`);
 * - JSON lines: one flat JSON object per line (batch files for
 *   `core/batch_runner.hpp`), e.g.
 *   `{"problem":"maxcut:ring-8","warmup":60,"search":"anneal"}`.
 *
 * Field names and defaults deliberately mirror the historical
 * `cafqa_cli` flags, and `make_pipeline_config` reproduces the CLI's
 * config wiring exactly, so a spec-driven run of the default molecule
 * path is bit-identical to the legacy flag-driven run.
 */
#ifndef CAFQA_CORE_RUN_SPEC_HPP
#define CAFQA_CORE_RUN_SPEC_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "problems/problem.hpp"

namespace cafqa {

/** One declarative run: problem key + pipeline configuration. */
struct RunSpec
{
    /** Problem registry key (required before execution; may be filled
     *  after parsing, e.g. by a CLI override). */
    std::string problem;
    /** Optional human label for batch reports. */
    std::string label;

    // ---- Discrete Clifford search stage. ----
    std::size_t warmup = 200;
    std::size_t iterations = 300;
    std::uint64_t seed = 7;
    /** Discrete search strategy (optimizer-registry kind). */
    std::string search = "bayes";
    /** Prior-inject the problem's seed steps (the HF point for
     *  molecules). */
    bool hf_seed = true;
    /** Cross-run warm start: a Clifford assignment (quarter-turn steps,
     *  one 0..3 value per ansatz parameter) evaluated before the
     *  search's own exploration — typically a neighboring run's
     *  best_steps. Serialized as comma-separated steps
     *  (`warm-start=1,3,0,2`; `warm_start` is accepted as an alias).
     *  Empty = off. Composes with `hf_seed` (both are seeded). */
    std::vector<int> warm_start;

    // ---- Optional stages. ----
    /** Greedy Clifford+kT rounds (0 = off). */
    std::size_t max_t = 0;
    /** Continuous tuner iterations (0 = off). */
    std::size_t tune = 0;
    /** Tuning backend registry kind; empty = auto. */
    std::string tune_backend;
    /** Continuous tuning strategy (optimizer-registry kind). */
    std::string tuner = "spsa";

    // ---- Cross-stage controls. ----
    /** Objective-evaluation cap per stage (0 = stage budgets only). */
    std::size_t budget = 0;
    /** Target-value early exit for every stage. */
    std::optional<double> target_energy;
    /** Worker threads of the run's own pool (0 = the hardware): batched
     *  search candidates, SPSA's probes and the slices of each
     *  statevector expectation and of the exact solve's matvecs. The
     *  record is the same to the bit for every count. */
    std::size_t threads = 0;
    /** Memoizing evaluation cache: one per run, shared by every stage
     *  (`PipelineConfig::cache`); StageEnd events report its counters
     *  so far. */
    bool cache = false;
    /** Cache capacity bound (0 = default; nonzero implies `cache`). */
    std::size_t cache_capacity = 0;
    /** Compute the problem's exact reference energy for the run record
     *  (small instances only). `exact=0` skips the solve — a Lanczos
     *  run or a 2^n MaxCut brute force per record otherwise. */
    bool exact = true;

    bool operator==(const RunSpec&) const = default;

    /**
     * Assign one field by its serialized name ("warmup", "hf-seed",
     * ...), applying the same validation as parsing — the override
     * hook for CLI flags layered on top of a parsed spec. Throws
     * std::invalid_argument on unknown fields or invalid values.
     */
    void set(const std::string& field, const std::string& value);

    /**
     * Parse the text form (`field=value` tokens separated by
     * whitespace). Unknown fields, malformed tokens, duplicate fields
     * and invalid values throw std::invalid_argument naming the
     * accepted fields.
     */
    static RunSpec parse(const std::string& text);

    /** Parse one flat JSON object (same fields as the text form, same
     *  rejection rules — duplicates included). */
    static RunSpec from_json(const std::string& json);

    /** Serialize to the text form; emits `problem` plus every field
     *  that differs from its default, so parse(to_string()) == *this. */
    std::string to_string() const;

    /** Serialize to one flat JSON object (same field selection). */
    std::string to_json() const;

    /** Throws std::invalid_argument unless the spec names a problem. */
    void validate() const;
};

/**
 * Parse a JSON-lines batch file: one RunSpec object per non-empty line
 * (lines starting with '#' are comments). A bad line throws
 * std::invalid_argument prefixed with its 1-based line number and a
 * snippet of the offending text, e.g.
 * `jsonl line 3 ({"problem":...}): run spec field ...`.
 */
std::vector<RunSpec> parse_run_specs_jsonl(const std::string& text);

/**
 * The pipeline configuration for a spec over a resolved problem —
 * exactly the wiring the CLI historically applied (tuner seeded with
 * `seed + 1`, seed steps injected when `hf_seed`, ...). A fresh run
 * cache is allocated only when the spec sets `cache` or
 * `cache_capacity`.
 */
PipelineConfig make_pipeline_config(const RunSpec& spec,
                                    const problems::Problem& problem);

} // namespace cafqa

#endif // CAFQA_CORE_RUN_SPEC_HPP
