/**
 * @file
 * The one string-keyed registry pattern behind the backend, optimizer
 * and problem-family factories, plus `downcast`, the checked
 * `unique_ptr` downcast that restores a derived interface from what a
 * factory built.
 */
#ifndef CAFQA_COMMON_REGISTRY_HPP
#define CAFQA_COMMON_REGISTRY_HPP

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/text.hpp"
#include "common/thread_safety.hpp"

namespace cafqa {

/**
 * Thread-safe sorted table of `Entry` values, seeded with the built-ins;
 * `add` replaces an existing entry. `get` returns a COPY so the caller
 * runs a factory outside the lock: a decorating backend's factory
 * constructs its inner backend through the same registry, which would
 * self-deadlock under the lock.
 */
template <typename Entry>
class Registry
{
  public:
    /** `what` names a key in errors ("backend kind"); a non-empty
     *  `hint` closes the unknown-key error's list of keys. */
    Registry(std::string what, std::string hint,
             std::map<std::string, Entry> built_ins)
        : what_(std::move(what)), hint_(std::move(hint)),
          entries_(std::move(built_ins))
    {
    }

    void
    add(const std::string& key, Entry entry)
    {
        MutexLock lock(registry_mutex_);
        entries_.insert_or_assign(key, std::move(entry));
    }

    /** Copy of the entry under `key`; throws std::invalid_argument
     *  `unknown <what> "<key>"<context> (registered: a, b[; <hint>])`
     *  when unregistered. */
    Entry
    get(const std::string& key, const std::string& context = {}) const
    {
        {
            MutexLock lock(registry_mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end()) {
                return it->second;
            }
        }
        throw_require_failure(
            "false", __FILE__, __LINE__,
            "unknown " + what_ + " \"" + key + "\"" + context +
                " (registered: " + join(keys(), ", ") +
                (hint_.empty() ? "" : "; " + hint_) + ")");
    }

    /** Sorted registered keys. */
    std::vector<std::string>
    keys() const
    {
        MutexLock lock(registry_mutex_);
        std::vector<std::string> keys;
        for (const auto& [key, entry] : entries_) {
            keys.push_back(key);
        }
        return keys;
    }

  private:
    const std::string what_;
    const std::string hint_;
    mutable Mutex registry_mutex_{"registry_mutex"};
    std::map<std::string, Entry> entries_ CAFQA_GUARDED_BY(registry_mutex_);
};

/** Move `from` into a `unique_ptr<To>`; throws std::invalid_argument
 *  carrying `message` when its dynamic type is not a `To`. */
template <typename To, typename From>
std::unique_ptr<To>
downcast(std::unique_ptr<From> from, const std::string& message)
{
    To* const to = dynamic_cast<To*>(from.get());
    CAFQA_REQUIRE(to != nullptr, message);
    from.release();
    return std::unique_ptr<To>(to);
}

} // namespace cafqa

#endif // CAFQA_COMMON_REGISTRY_HPP
