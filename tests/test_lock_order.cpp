/**
 * @file
 * Lock-order manifest and runtime validator tests
 * (src/common/lock_order_check.cpp). The manifest's edge table is
 * generated on every configure, so its acyclicity is checked in every
 * build; the validator's death tests need a `CAFQA_LOCK_ORDER_CHECK=ON`
 * build (the `lock-order` CI lane) and reduce to one skip elsewhere.
 *
 * Mutex names are deliberately passed through `const char* const`
 * variables: the linter's duplicate-mutex rule reads names from string
 * literals in the declaration, so these locals stay invisible to it
 * while the runtime validator sees the real production names.
 */
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_safety.hpp"

// Generated by CMake from tools/lint/lock_order.manifest.
#include "cafqa_lock_order_table.inc"

namespace {

using Edge = std::pair<std::string, std::string>;

/** True if the directed graph `edges` has a cycle (self-loops too). */
bool has_cycle(const std::vector<Edge>& edges)
{
    std::map<std::string, std::vector<std::string>> next;
    for (const auto& [from, to] : edges) {
        next[from].push_back(to);
    }
    enum class Mark { OnPath, Done };
    std::map<std::string, Mark> marks;
    std::function<bool(const std::string&)> finds_cycle =
        [&](const std::string& node) {
            const auto mark = marks.find(node);
            if (mark != marks.end()) {
                return mark->second == Mark::OnPath;
            }
            marks[node] = Mark::OnPath;
            const auto out = next.find(node);
            if (out != next.end()) {
                for (const std::string& to : out->second) {
                    if (finds_cycle(to)) {
                        return true;
                    }
                }
            }
            marks[node] = Mark::Done;
            return false;
        };
    for (const auto& entry : next) {
        if (finds_cycle(entry.first)) {
            return true;
        }
    }
    return false;
}

TEST(LockOrderManifest, EdgesAreAcyclic)
{
    // The check itself must see a cycle when there is one...
    EXPECT_TRUE(has_cycle({{"alpha_mutex", "beta_mutex"},
                           {"beta_mutex", "gamma_mutex"},
                           {"gamma_mutex", "alpha_mutex"}}));
    EXPECT_TRUE(has_cycle({{"alpha_mutex", "alpha_mutex"}}));
    EXPECT_FALSE(has_cycle({{"alpha_mutex", "beta_mutex"},
                            {"beta_mutex", "gamma_mutex"},
                            {"alpha_mutex", "gamma_mutex"}}));
    // ...and the committed manifest has none, so every ordering the
    // validator lets through is consistent with one global lock order.
    std::vector<Edge> edges;
    for (const auto& edge : kCafqaLockOrderEdges) {
        if (edge.from == nullptr) {
            break; // sentinel
        }
        edges.emplace_back(edge.from, edge.to);
    }
    ASSERT_FALSE(edges.empty());
    EXPECT_FALSE(has_cycle(edges));
}

#if defined(CAFQA_LOCK_ORDER_CHECK)

using cafqa::Mutex;
using cafqa::MutexLock;

// Real manifest names: the committed manifest has jobs_mutex ->
// queue_mutex (a worker inspects queue state while holding its job
// bookkeeping) and no reverse edge.
const char* const kQueue = "queue_mutex";
const char* const kJobs = "jobs_mutex";
// metrics_mutex is in no manifest edge: a scrape reads only atomics, so
// it is a leaf.
const char* const kMetrics = "metrics_mutex";
const char* const kShard = "shard_mutex";

TEST(LockOrderRuntime, ManifestOrderIsQuiet)
{
    Mutex jobs{kJobs};
    Mutex queue{kQueue};
    MutexLock outer(jobs);
    MutexLock inner(queue);
    SUCCEED();
}

TEST(LockOrderRuntime, InvertedAcquisitionAbortsWithEdgeNamed)
{
    // The inversion of the manifest edge must die deterministically,
    // naming both endpoints, BEFORE blocking.
    EXPECT_DEATH(
        {
            Mutex jobs{kJobs};
            Mutex queue{kQueue};
            MutexLock outer(queue);
            MutexLock inner(jobs);
        },
        "cafqa lock-order violation: acquisition while holding: "
        "\"queue_mutex\" -> \"jobs_mutex\" has no edge");
    // The same inversion with the second acquisition behind a
    // std::function, where reading the caller's source shows no
    // acquisition at all: still caught, still naming both endpoints.
    EXPECT_DEATH(
        {
            Mutex metrics{kMetrics};
            Mutex shard{kShard};
            const std::function<void()> scrape = [&metrics] {
                MutexLock inner(metrics);
            };
            MutexLock outer(shard);
            scrape();
        },
        "cafqa lock-order violation: acquisition while holding: "
        "\"shard_mutex\" -> \"metrics_mutex\" has no edge");
    // Nor may anything be taken under the leaf metrics_mutex.
    EXPECT_DEATH(
        {
            Mutex metrics{kMetrics};
            Mutex queue{kQueue};
            MutexLock outer(metrics);
            MutexLock inner(queue);
        },
        "cafqa lock-order violation: acquisition while holding: "
        "\"metrics_mutex\" -> \"queue_mutex\" has no edge");
}

TEST(LockOrderRuntime, ManualLockPathIsCheckedToo)
{
    // Mutex::lock() (not just the MutexLock wrapper) goes through the
    // same check.
    EXPECT_DEATH(
        {
            Mutex jobs{kJobs};
            Mutex queue{kQueue};
            MutexLock outer(queue);
            jobs.lock();
        },
        "\"queue_mutex\" -> \"jobs_mutex\"");
}

TEST(LockOrderRuntime, UnnamedMutexesSkipTheOrderingCheck)
{
    Mutex anonymous_a;
    Mutex anonymous_b;
    Mutex queue{kQueue};
    MutexLock a(anonymous_a);
    MutexLock q(queue);
    MutexLock b(anonymous_b);
    SUCCEED();
}

TEST(LockOrderRuntime, RelockOfHeldInstanceAborts)
{
    EXPECT_DEATH(
        {
            Mutex anonymous;
            anonymous.lock();
            anonymous.lock();
        },
        "relock of an already-held mutex instance");
}

TEST(LockOrderRuntime, ReleaseUnwindsTheHeldStack)
{
    Mutex jobs{kJobs};
    Mutex queue{kQueue};
    {
        MutexLock outer(queue);
    }
    // queue_mutex is no longer held, so acquiring jobs_mutex is fine.
    MutexLock inner(jobs);
    SUCCEED();
}

TEST(LockOrderRuntime, UnlockRelockDanceIsTracked)
{
    Mutex jobs{kJobs};
    Mutex queue{kQueue};
    MutexLock outer(queue);
    outer.unlock();
    // Not held any more: no queue -> jobs edge is consulted.
    MutexLock inner(jobs);
    SUCCEED();
}

#else // !CAFQA_LOCK_ORDER_CHECK

TEST(LockOrderRuntime, DisabledInThisBuild)
{
    GTEST_SKIP() << "configure with -DCAFQA_LOCK_ORDER_CHECK=ON to "
                    "exercise the runtime lock-order validator";
}

#endif

} // namespace
