#include "core/exact_memo.hpp"

#include "common/error.hpp"

namespace cafqa {

ExactEnergyMemo::ExactEnergyMemo()
    : // Registered here, with no lock held; the bumps below run
      // lock-free under `exact_memo_mutex_`.
      hits_metric_(telemetry::MetricsRegistry::instance().counter(
          "cafqa_exact_memo_total", {{"result", "hit"}},
          "Exact-energy requests, by whether the memo answered them")),
      misses_metric_(telemetry::MetricsRegistry::instance().counter(
          "cafqa_exact_memo_total", {{"result", "miss"}},
          "Exact-energy requests, by whether the memo answered them"))
{
}

std::optional<double>
ExactEnergyMemo::exact_energy(const problems::Problem& problem,
                              ThreadPool* pool)
{
    MutexLock lock(exact_memo_mutex_);
    for (auto found = index_.find(problem.key); found != index_.end();
         found = index_.find(problem.key)) {
        const Entry& entry = *found->second;
        if (!entry.solved) {
            // Another request is solving this key. Look again once it
            // is done: the entry is gone if that solve was abandoned.
            solved_.wait(lock);
            continue;
        }
        lru_.splice(lru_.begin(), lru_, found->second);
        hits_metric_.add();
        if (entry.error) {
            throw CafqaError(*entry.error);
        }
        return entry.energy;
    }
    lru_.push_front(Entry{problem.key, false, std::nullopt, std::nullopt});
    index_.emplace(problem.key, lru_.begin());
    misses_metric_.add();
    lock.unlock();

    std::optional<double> energy;
    std::optional<std::string> error;
    try {
        energy = problem.exact_energy(pool);
    } catch (const CafqaError& failure) {
        error = failure.what();
    } catch (...) {
        // Not a property of the problem: forget the key, so that a
        // waiting request (or the next one) solves it again.
        lock.lock();
        lru_.erase(index_.at(problem.key));
        index_.erase(problem.key);
        solved_.notify_all();
        throw;
    }

    lock.lock();
    // Only this call removes an unsolved entry, so it is still here.
    Entry& entry = *index_.at(problem.key);
    entry.solved = true;
    entry.energy = energy;
    entry.error = error;
    evict_locked();
    solved_.notify_all();
    if (error) {
        throw CafqaError(*error);
    }
    return energy;
}

void
ExactEnergyMemo::evict_locked()
{
    auto victim = lru_.end();
    while (lru_.size() > kExactMemoEntries && victim != lru_.begin()) {
        --victim;
        if (victim->solved) {
            index_.erase(victim->key);
            victim = lru_.erase(victim);
        }
    }
}

} // namespace cafqa
