/**
 * @file
 * Runtime lock-order validator behind the `CAFQA_LOCK_ORDER_CHECK`
 * CMake option — the tree's only lock-order check. Every named
 * `cafqa::Mutex` acquisition is checked against the committed
 * acquisition-order manifest (`tools/lint/lock_order.manifest`,
 * compiled at configure time into the generated table this file
 * includes): if the calling thread already holds a named mutex with no
 * manifest edge to the one being acquired, the process aborts with both
 * endpoints named — BEFORE blocking, so an inversion dies
 * deterministically instead of deadlocking only when the schedule
 * cooperates. It sees every acquisition the run makes, including those
 * behind a `std::function`. `test_lock_order` checks that the manifest
 * is acyclic, so no named-mutex cycle can pass.
 *
 * Unnamed mutexes (tests, benches, short-lived locals) participate in
 * the relock-detection but never in the ordering check. The held-stack
 * is thread-local and the check is O(held × edges); held depth in this
 * codebase is ≤ 3 and the edge table has ~a dozen rows, so the
 * instrumented build stays fast enough for the full concurrency ctest
 * suites plus `server_load --quick`.
 */
#if defined(CAFQA_LOCK_ORDER_CHECK)

#include "common/thread_safety.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

// Generated by CMake from tools/lint/lock_order.manifest. Defines:
//   kCafqaLockOrderManifestPath  — source-relative manifest path
//   kCafqaLockOrderEdges[]       — {from, to} name pairs (nullptr
//                                  sentinel)
#include "cafqa_lock_order_table.inc"

namespace cafqa::detail {
namespace {

std::vector<const Mutex*>& held_stack() noexcept
{
    thread_local std::vector<const Mutex*> held;
    return held;
}

bool edge_allowed(const char* from, const char* to) noexcept
{
    for (const auto& edge : kCafqaLockOrderEdges) {
        if (edge.from == nullptr) { break; } // sentinel
        if (std::strcmp(edge.from, from) == 0 &&
            std::strcmp(edge.to, to) == 0) {
            return true;
        }
    }
    return false;
}

[[noreturn]] void fail(const char* what, const char* from, const char* to,
                       const std::vector<const Mutex*>& held) noexcept
{
    std::fprintf(stderr,
                 "cafqa lock-order violation: %s: \"%s\" -> \"%s\" has no "
                 "edge in %s\n  held stack:",
                 what, from, to, kCafqaLockOrderManifestPath);
    for (const Mutex* mutex : held) {
        std::fprintf(stderr, " \"%s\"",
                     mutex->name() != nullptr ? mutex->name() : "<unnamed>");
    }
    std::fprintf(stderr, "\n");
    std::abort();
}

} // namespace

void lock_order_check(const Mutex& mutex) noexcept
{
    const auto& held = held_stack();
    if (held.empty()) { return; }
    for (const Mutex* entry : held) {
        if (entry == &mutex) {
            fail("relock of an already-held mutex instance",
                 mutex.name() != nullptr ? mutex.name() : "<unnamed>",
                 mutex.name() != nullptr ? mutex.name() : "<unnamed>", held);
        }
    }
    const char* to = mutex.name();
    if (to == nullptr) { return; }
    for (const Mutex* entry : held) {
        const char* from = entry->name();
        if (from == nullptr) { continue; }
        if (!edge_allowed(from, to)) {
            fail("acquisition while holding", from, to, held);
        }
    }
}

void lock_order_push(const Mutex& mutex) noexcept
{
    held_stack().push_back(&mutex);
}

void lock_order_pop(const Mutex& mutex) noexcept
{
    auto& held = held_stack();
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (*it == &mutex) {
            held.erase(std::next(it).base());
            return;
        }
    }
}

} // namespace cafqa::detail

#endif // CAFQA_LOCK_ORDER_CHECK
