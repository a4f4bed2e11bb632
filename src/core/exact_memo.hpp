/**
 * @file
 * Exact-energy memo of the serving layer. A record's exact reference
 * (`Problem::exact_energy`, a Lanczos or brute-force solve) depends on
 * the problem alone, yet it is the largest cost of a served job on a
 * small molecule. `JobServer` owns one memo and hands it to every job
 * through `RunContext::exact_memo`, so jobs on one problem solve it once
 * per process; a solo `execute_run_spec` (the CLI, `BatchRunner`, the
 * solo bench passes) has no memo and solves per run.
 *
 *   ExactEnergyMemo memo;
 *   const std::optional<double> e = memo.exact_energy(problem, pool);
 *
 * Identity is the canonical `Problem::key`, compared as the full string.
 * The memo holds what the solve produced: the energy (nullopt when the
 * instance is too large), or the text of a `CafqaError` (an unconverged
 * solve), which every later request rethrows as a `CafqaError` with the
 * same text, so a memoized record is byte-identical to a solo one. Any
 * other exception (`std::bad_alloc`, ...) says nothing about the problem
 * and is not memoized.
 *
 * Concurrent first requests for one key run one solve; the others wait
 * for it. The solve runs with no lock held. Residency is bounded by
 * `kExactMemoEntries` with LRU eviction, so clients submitting ever new
 * keys (bond lengths) cannot grow it without bound; an entry whose
 * solve is in flight is never evicted.
 */
#ifndef CAFQA_CORE_EXACT_MEMO_HPP
#define CAFQA_CORE_EXACT_MEMO_HPP

#include <cstddef>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/thread_safety.hpp"
#include "problems/problem.hpp"
#include "telemetry/metrics.hpp"

namespace cafqa {

/** Memo bound: a few doubles and short strings per entry, and far more
 *  problems than a served mix keeps hot. */
inline constexpr std::size_t kExactMemoEntries = 256;

class ExactEnergyMemo
{
  public:
    ExactEnergyMemo();

    ExactEnergyMemo(const ExactEnergyMemo&) = delete;
    ExactEnergyMemo& operator=(const ExactEnergyMemo&) = delete;

    /**
     * `problem.exact_energy(pool)`, solved at most once while its key
     * stays resident (the solving request's pool splits the solve; the
     * value is the same without it). Counts one miss when this call
     * runs the solve, else one hit (waiting on a solve in flight is a
     * hit).
     */
    std::optional<double> exact_energy(const problems::Problem& problem,
                                       ThreadPool* pool = nullptr)
        CAFQA_EXCLUDES(exact_memo_mutex_);

  private:
    struct Entry
    {
        std::string key;
        /** False while the first request's solve is in flight. */
        bool solved = false;
        std::optional<double> energy;
        /** Set when the solve threw a CafqaError with this text. */
        std::optional<std::string> error;
    };

    /** Drop least-recently-used solved entries beyond the bound. */
    void evict_locked() CAFQA_REQUIRES(exact_memo_mutex_);

    /** `cafqa_exact_memo_total{result=...}`, fetched in the
     *  constructor; the bumps are lock-free. */
    telemetry::Counter& hits_metric_;
    telemetry::Counter& misses_metric_;

    Mutex exact_memo_mutex_{"exact_memo_mutex"};
    /** Signalled when an in-flight solve finishes or is abandoned. */
    CondVar solved_;
    /** Front = most recently used. */
    std::list<Entry> lru_ CAFQA_GUARDED_BY(exact_memo_mutex_);
    /** Key -> LRU slot (the stored iterators point into `lru_`, guarded
     *  by the same mutex). */
    std::unordered_map<std::string, std::list<Entry>::iterator>
        index_ CAFQA_GUARDED_BY(exact_memo_mutex_);
};

} // namespace cafqa

#endif // CAFQA_CORE_EXACT_MEMO_HPP
