#include "timed_backend.hpp"

#include <array>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "core/backend_registry.hpp"

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

constexpr std::array<const char*, 4> kTimedKinds = {
    "clifford", "statevector", "density", "sampled"};

std::array<LayerClock, kTimedKinds.size()>&
clocks()
{
    static std::array<LayerClock, kTimedKinds.size()> all;
    return all;
}

/** Adds the wall time from construction to destruction into `sink`. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(std::atomic<std::uint64_t>& sink)
        : sink_(sink), start_(clock_type::now())
    {
    }
    ~ScopedTimer()
    {
        sink_.fetch_add(static_cast<std::uint64_t>(
                            std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                clock_type::now() - start_)
                                .count()),
                        std::memory_order_relaxed);
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

  private:
    std::atomic<std::uint64_t>& sink_;
    clock_type::time_point start_;
};

/** Forwards every call of `Base` to `inner_`, timing it into `clock_`. */
template <class Base, class Params>
class Timed final : public Base
{
  public:
    Timed(std::unique_ptr<Base> inner, LayerClock& clock)
        : inner_(std::move(inner)), clock_(clock)
    {
    }

    std::string_view kind() const override { return inner_->kind(); }
    std::size_t num_qubits() const override { return inner_->num_qubits(); }
    std::size_t num_params() const override { return inner_->num_params(); }

    double
    expectation(const cafqa::PauliSum& op) const override
    {
        count_swept({&op, 1});
        ScopedTimer timer(clock_.measure_ns);
        return inner_->expectation(op);
    }

    std::vector<double>
    expectations(std::span<const cafqa::PauliSum> ops) const override
    {
        count_swept(ops);
        ScopedTimer timer(clock_.measure_ns);
        return inner_->expectations(ops);
    }

    std::unique_ptr<cafqa::Backend>
    clone() const override
    {
        std::unique_ptr<cafqa::Backend> copy = inner_->clone();
        auto* typed = dynamic_cast<Base*>(copy.get());
        if (typed == nullptr) {
            throw std::logic_error("timed backend: clone changed kind");
        }
        copy.release();
        return std::make_unique<Timed>(std::unique_ptr<Base>(typed), clock_);
    }

    void
    prepare(const Params& params) override
    {
        clock_.evals.fetch_add(1, std::memory_order_relaxed);
        ScopedTimer timer(clock_.prepare_ns);
        inner_->prepare(params);
    }

    std::vector<double>
    expectation_batch(const std::vector<Params>& candidates,
                      const cafqa::PauliSum& op) override
    {
        clock_.evals.fetch_add(candidates.size(), std::memory_order_relaxed);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            count_swept({&op, 1});
        }
        ScopedTimer timer(clock_.prepare_ns);
        return inner_->expectation_batch(candidates, op);
    }

  private:
    /** Dense backends sweep all 2^n amplitudes once per Pauli term; a
     *  stabilizer backend does not (and may hold more than 63 qubits). */
    void
    count_swept(std::span<const cafqa::PauliSum> ops) const
    {
        if constexpr (std::is_same_v<Base, cafqa::ContinuousBackend>) {
            std::uint64_t terms = 0;
            for (const cafqa::PauliSum& op : ops) {
                terms += op.num_terms();
            }
            clock_.amplitudes_swept.fetch_add(terms << inner_->num_qubits(),
                                              std::memory_order_relaxed);
        }
    }

    std::unique_ptr<Base> inner_;
    LayerClock& clock_;
};

using TimedDiscrete = Timed<cafqa::DiscreteBackend, std::vector<int>>;
using TimedContinuous = Timed<cafqa::ContinuousBackend, std::vector<double>>;

} // namespace

double
LayerClock::eval_ms() const
{
    return static_cast<double>(prepare_ns.load() + measure_ns.load()) / 1e6;
}

void
LayerClock::reset()
{
    evals = 0;
    prepare_ns = 0;
    measure_ns = 0;
    amplitudes_swept = 0;
}

LayerClock&
layer_clock(const std::string& kind)
{
    for (std::size_t i = 0; i < kTimedKinds.size(); ++i) {
        if (kind == kTimedKinds[i]) {
            return clocks()[i];
        }
    }
    throw std::invalid_argument("no layer clock for backend kind \"" +
                                kind + "\"");
}

void
register_timed_backends()
{
    for (const char* kind : kTimedKinds) {
        const std::string plain = kind;
        cafqa::register_backend(
            "timed:" + plain,
            [plain](const cafqa::BackendConfig& config)
                -> std::unique_ptr<cafqa::Backend> {
                // The outer make_backend applies the cache block around
                // this decorator; the inner backend must not repeat it.
                cafqa::BackendConfig inner = config;
                inner.kind = plain;
                inner.cache = {};
                inner.shared_cache = nullptr;
                LayerClock& clock = layer_clock(plain);
                if (plain == "clifford") {
                    return std::make_unique<TimedDiscrete>(
                        cafqa::make_discrete_backend(inner), clock);
                }
                return std::make_unique<TimedContinuous>(
                    cafqa::make_continuous_backend(inner), clock);
            });
    }
}

void
reset_layer_clocks()
{
    for (LayerClock& clock : clocks()) {
        clock.reset();
    }
}

} // namespace perfbench
