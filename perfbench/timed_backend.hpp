/**
 * @file
 * Timing decorators for the evaluation backends, registered as extra
 * backend kinds: "timed:clifford", "timed:statevector",
 * "timed:density" and "timed:sampled". Each one builds the plain kind
 * through the registry and forwards every call to it unchanged, so a
 * run on a timed kind takes the same trajectory as a run on the plain
 * kind. Around each call it adds the wall time and the count of
 * prepared states into a per-kind `LayerClock`.
 *
 * Clones share their prototype's clock, so the pipeline's per-worker
 * fan-out adds into one total. With several workers the total is
 * summed over threads and can exceed the wall time it covers.
 */
#ifndef CAFQA_PERFBENCH_TIMED_BACKEND_HPP
#define CAFQA_PERFBENCH_TIMED_BACKEND_HPP

#include <atomic>
#include <cstdint>
#include <string>

namespace perfbench {

/** Work done inside one backend kind, summed over its clones. */
struct LayerClock
{
    /** States prepared (one per `prepare`, one per batch candidate). */
    std::atomic<std::uint64_t> evals{0};
    /** Nanoseconds in `prepare` and `expectation_batch`. */
    std::atomic<std::uint64_t> prepare_ns{0};
    /** Nanoseconds in `expectation` / `expectations`. */
    std::atomic<std::uint64_t> measure_ns{0};
    /** Amplitudes a dense backend's measurements sweep: Pauli terms x
     *  2^n, summed over every measured observable (0 for "clifford"). */
    std::atomic<std::uint64_t> amplitudes_swept{0};

    /** Milliseconds in prepare and measure calls together. */
    double eval_ms() const;
    void reset();
};

/** The clock of one plain kind ("clifford", "statevector", "density" or
 *  "sampled"); throws std::invalid_argument for any other kind. */
LayerClock& layer_clock(const std::string& kind);

/** Register the four "timed:<kind>" backends (idempotent). */
void register_timed_backends();

/** Zero every clock. */
void reset_layer_clocks();

} // namespace perfbench

#endif // CAFQA_PERFBENCH_TIMED_BACKEND_HPP
