/**
 * @file
 * Post-CAFQA variational tuning (paper Section 7.3 / Fig. 14): a
 * continuous optimizer (SPSA by default; any registered
 * `ContinuousOptimizer` via `PipelineConfig::tuner_optimizer`) over the
 * full parameter space, on either the ideal statevector backend or the
 * noisy density-matrix backend, starting from a chosen initialization
 * (HF bitstring-equivalent parameters or CAFQA steps).
 */
#ifndef CAFQA_CORE_VQA_TUNER_HPP
#define CAFQA_CORE_VQA_TUNER_HPP

#include <string>

#include "circuit/circuit.hpp"
#include "core/objective.hpp"
#include "density/noise_model.hpp"
#include "opt/spsa.hpp"

namespace cafqa {

/** Tuning controls. */
struct VqaTunerOptions
{
    std::size_t iterations = 500;
    std::uint64_t seed = 7;
    /** Noise model; an all-zero model selects the ideal backend. */
    NoiseModel noise;
    /**
     * Backend registry kind for the continuous stage. Empty picks
     * automatically: "density" when `noise` is enabled, else
     * "statevector". Set "sampled" for finite-shot tuning.
     */
    std::string backend;
    /** Measurement shots per commuting group ("sampled" backend). */
    std::size_t shots = 4096;
    /** SPSA gain parameters (iterations/seed fields are overridden).
     *  Defaults are sized for VQE angle landscapes in radians. */
    SpsaOptions spsa{.iterations = 200,
                     .a = 2.0,
                     .c = 0.2,
                     .alpha = 0.602,
                     .gamma = 0.101,
                     .stability = 20.0,
                     .seed = 1234};
};

/** Tuning outcome. */
struct VqaTuneResult
{
    /** Recorded objective trace: the start-point value followed by the
     *  value after each tuning step (for SPSA) or every evaluation
     *  (other tuners). */
    std::vector<double> trace;
    std::vector<double> final_params;
    double final_value = 0.0;
    /** Why the tuner ended (budget, target-value early exit, ...). */
    StopReason stop_reason = StopReason::BudgetExhausted;
};

/**
 * Convergence metric for Fig. 14: the number of tuning steps until the
 * trace value is within `tolerance` of the eventual best. `trace[0]`
 * is the start point (0 steps), so an initialization already within
 * tolerance returns 0. Returns trace.size() if the trace never reaches
 * the tolerance band.
 */
std::size_t iterations_to_converge(const std::vector<double>& trace,
                                   double tolerance);

} // namespace cafqa

#endif // CAFQA_CORE_VQA_TUNER_HPP
