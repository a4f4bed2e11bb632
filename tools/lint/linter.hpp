/**
 * @file
 * Project-invariant linter for the CAFQA tree (`lint_invariants`).
 *
 * The repo has a handful of concurrency/determinism invariants that
 * the compiler cannot enforce and that review keeps re-litigating.
 * This linter makes them mechanical. Rules:
 *
 *   unseeded-rng    No `rand()`, `srand()` or `std::random_device`.
 *                   All randomness must flow through the seeded RNG
 *                   plumbing (`common/rng.hpp`) so runs replay.
 *   raw-thread      No raw `std::thread` outside the two sanctioned
 *                   homes (`common/thread_pool.*`, `src/server/`).
 *                   Everything else goes through `ThreadPool`.
 *   unordered-iter  No range-for over a variable declared as a
 *                   `std::unordered_{map,set,multimap,multiset}` —
 *                   iteration order is unspecified, so such loops
 *                   feeding serialization or output make results
 *                   nondeterministic across libstdc++ versions.
 *   naked-mutex     No `std::mutex` / `std::condition_variable`
 *                   outside `common/thread_safety.hpp`. Use the
 *                   annotated `cafqa::Mutex` / `cafqa::CondVar`
 *                   wrappers so clang -Wthread-safety sees the locks.
 *   catch-swallow   No `catch (...)` that neither rethrows (`throw`)
 *                   nor records the error (`current_exception`).
 *                   Silent swallowing hides worker crashes.
 *   wall-clock-in-logic
 *                   No `system_clock` outside telemetry/bench paths —
 *                   logic keyed to wall time is irreproducible; use
 *                   steady_clock for durations.
 *   blocking-under-lock
 *                   No socket I/O (`::send`, `::recv`, `::accept`,
 *                   `::connect`, `::poll`), `parallel_for`,
 *                   `execute_run_spec`, sleeps, `join`, or
 *                   `CondVar::wait` on a DIFFERENT mutex while a named
 *                   mutex is held. Intraprocedural: `MutexLock v(m)`
 *                   scopes are tracked by brace depth (with
 *                   `v.unlock()`/`v.lock()`), a lambda body starts with
 *                   nothing held, and a function declared anywhere with
 *                   `CAFQA_REQUIRES(m)` starts with `m` held.
 *   unnamed-mutex   `cafqa::Mutex` in src/ without a registered name
 *                   (invisible to the runtime lock-order validator).
 *   mutex-name-mismatch
 *                   Registered name != identifier minus trailing
 *                   underscores.
 *   duplicate-mutex Two declarations registering the same name.
 *
 * The acquisition ORDER itself is not linted: the runtime validator
 * (`CAFQA_LOCK_ORDER_CHECK`, src/common/lock_order_check.cpp) checks
 * every named acquisition against `tools/lint/lock_order.manifest`.
 *
 * Suppression: a violating line (or the line directly above it) may
 * carry a `lint:allow(<rule>) <reason>` line comment. The reason is
 * mandatory —
 * an allow without one, or naming an unknown rule, is itself reported
 * (rule `bad-allow`) and cannot be suppressed.
 *
 * The matching is lexical (comments and string/char literals are
 * blanked first), deliberately simple and deterministic; `lint:allow`
 * is the escape hatch for the rare justified exception.
 */
#ifndef CAFQA_TOOLS_LINT_LINTER_HPP
#define CAFQA_TOOLS_LINT_LINTER_HPP

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cafqa::lint {

/** One rule violation (or malformed suppression). */
struct Finding
{
    std::string file;
    std::size_t line = 0; // 1-based
    std::string rule;
    std::string message;
};

/** Result of linting one file / source buffer. */
struct FileReport
{
    std::vector<Finding> findings;
    /** Suppressions that matched a finding (honoured allows). */
    std::size_t allows_used = 0;
};

/** The enforced rule names (excludes the meta rule `bad-allow`). */
const std::vector<std::string>& rule_names();

/** Facts the per-file rules need from the WHOLE tree (a header
 *  declares a member unordered, or a helper `CAFQA_REQUIRES`, that the
 *  matching .cpp uses), collected over every file before linting. */
struct TreeFacts
{
    /** Names declared with an unordered container type. */
    std::set<std::string> unordered;
    /** Registered mutex name by declared identifier (first wins). */
    std::map<std::string, std::string> mutex_names;
    /** First declaration (`file:line`) of each registered name. */
    std::map<std::string, std::string> first_declaration;
    /** Mutex identifiers held on entry, by bare function name. */
    std::map<std::string, std::set<std::string>> held_on_entry;
};

/** Add the facts of one file to `facts` (earlier files win ties). */
void collect_tree_facts(const std::string& display_path,
                        const std::string& text, TreeFacts& facts);

/** Lint an in-memory buffer. `display_path` labels findings and
 *  drives the path-based exemptions (thread_safety.hpp, thread_pool,
 *  server/). The buffer's own facts need not be in `tree`. */
FileReport lint_source(const std::string& display_path,
                       const std::string& text,
                       const TreeFacts& tree = {});

/** Lint a file on disk. Unreadable file -> one finding with rule
 *  "io-error". */
FileReport lint_file(const std::string& path, const TreeFacts& tree = {});

/** Aggregate per-rule hit counts (the CI summary table). */
std::map<std::string, std::size_t>
rule_hits(const std::vector<Finding>& findings);

} // namespace cafqa::lint

#endif // CAFQA_TOOLS_LINT_LINTER_HPP
