/**
 * @file
 * Linter self-tests: every rule must fire on its fixture, the clean
 * fixture (which exercises the `lint:allow` escape hatch) must pass,
 * and the lexer must ignore rule tokens inside comments and strings.
 * The live tree check (`lint_invariants src/`) runs as its own ctest
 * (`lint_tree`); these tests pin the rules' behaviour instead.
 */
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/linter.hpp"

namespace {

using cafqa::lint::FileReport;
using cafqa::lint::Finding;
using cafqa::lint::lint_file;
using cafqa::lint::lint_source;
using cafqa::lint::TreeFacts;

std::string fixture(const std::string& name)
{
    return std::string(CAFQA_LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<std::string> rules_hit(const FileReport& report)
{
    std::vector<std::string> rules;
    for (const Finding& finding : report.findings) {
        rules.push_back(finding.rule);
    }
    return rules;
}

std::size_t count_rule(const FileReport& report, const std::string& rule)
{
    const std::vector<std::string> rules = rules_hit(report);
    return static_cast<std::size_t>(
        std::count(rules.begin(), rules.end(), rule));
}

TEST(LintFixtures, UnseededRngFires)
{
    const FileReport report = lint_file(fixture("bad_rng.cpp"));
    EXPECT_EQ(count_rule(report, "unseeded-rng"), 3u)
        << "random_device decl, srand call, rand call";
}

TEST(LintFixtures, RawThreadFires)
{
    const FileReport report = lint_file(fixture("bad_thread.cpp"));
    EXPECT_EQ(count_rule(report, "raw-thread"), 1u);
}

TEST(LintFixtures, UnorderedIterFires)
{
    const FileReport report = lint_file(fixture("bad_unordered.cpp"));
    // Multi-line member decl with attribute macro + unordered_set.
    EXPECT_EQ(count_rule(report, "unordered-iter"), 2u);
}

TEST(LintFixtures, NakedMutexFires)
{
    const FileReport report = lint_file(fixture("bad_mutex.cpp"));
    EXPECT_EQ(count_rule(report, "naked-mutex"), 3u)
        << "mutex, condition_variable, shared_mutex";
}

TEST(LintFixtures, CatchSwallowFires)
{
    const FileReport report = lint_file(fixture("bad_catch.cpp"));
    EXPECT_EQ(count_rule(report, "catch-swallow"), 2u);
}

TEST(LintFixtures, MalformedAllowsAreFindings)
{
    const FileReport report = lint_file(fixture("bad_allow.cpp"));
    EXPECT_EQ(count_rule(report, "bad-allow"), 2u)
        << "one reason-less allow, one unknown-rule allow";
    // The reason-less allow must NOT suppress the underlying finding.
    EXPECT_EQ(count_rule(report, "naked-mutex"), 2u);
    EXPECT_EQ(report.allows_used, 0u);
}

TEST(LintFixtures, CleanFileWithJustifiedAllowsPasses)
{
    const FileReport report = lint_file(fixture("clean.cpp"));
    EXPECT_TRUE(report.findings.empty())
        << (report.findings.empty()
                ? ""
                : report.findings.front().rule + ": " +
                      report.findings.front().message);
    EXPECT_EQ(report.allows_used, 2u)
        << "naked-mutex interop + unordered-iter fold";
}

TEST(LintFixtures, MissingFileIsIoError)
{
    const FileReport report = lint_file(fixture("does_not_exist.cpp"));
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "io-error");
}

TEST(LintRules, CommentsAndStringsDoNotTrip)
{
    const FileReport report = lint_source(
        "buf.cpp",
        "// std::mutex in a comment\n"
        "/* std::thread rand() */\n"
        "const char* s = \"std::condition_variable\";\n"
        "const char* r = R\"(std::random_device)\";\n"
        "char c = ':';\n"
        "int big = 1'000'000;\n");
    EXPECT_TRUE(report.findings.empty());
}

TEST(LintRules, TrailingAllowSuppressesSameLine)
{
    const FileReport report = lint_source(
        "buf.cpp",
        "#include <mutex>\n"
        "std::mutex m; // lint:allow(naked-mutex) interop handle\n");
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.allows_used, 1u);
}

TEST(LintRules, CommentLineAllowSuppressesNextCodeLine)
{
    const FileReport report = lint_source(
        "buf.cpp",
        "// lint:allow(raw-thread) this reason wraps over two\n"
        "// whole comment lines before the code.\n"
        "std::thread t;\n");
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.allows_used, 1u);
}

TEST(LintRules, AllowForDifferentRuleDoesNotSuppress)
{
    const FileReport report = lint_source(
        "buf.cpp",
        "std::thread t; // lint:allow(naked-mutex) wrong rule\n");
    EXPECT_EQ(count_rule(report, "raw-thread"), 1u);
}

TEST(LintRules, PathExemptions)
{
    // thread_pool and server/ may use std::thread ...
    EXPECT_TRUE(lint_source("src/common/thread_pool.cpp",
                            "std::thread t;\n")
                    .findings.empty());
    EXPECT_TRUE(lint_source("src/server/job_server.cpp",
                            "std::thread t;\n")
                    .findings.empty());
    // ... and only thread_safety.hpp may name std::mutex.
    EXPECT_TRUE(lint_source("src/common/thread_safety.hpp",
                            "std::mutex m;\n")
                    .findings.empty());
    EXPECT_EQ(count_rule(lint_source("src/core/pipeline.cpp",
                                     "std::mutex m;\n"),
                         "naked-mutex"),
              1u);
}

TEST(LintRules, CatchThatHandlesIsFine)
{
    const FileReport report = lint_source(
        "buf.cpp",
        "void f() {\n"
        "  try { g(); } catch (...) { throw; }\n"
        "  try { g(); } catch (...) {\n"
        "    error = std::current_exception();\n"
        "  }\n"
        "}\n");
    EXPECT_TRUE(report.findings.empty());
}

TEST(LintRules, UnorderedDeclInHeaderCaughtInSource)
{
    // The real layout: members are declared unordered in a header but
    // iterated in the matching .cpp. lint_invariants passes the tree facts
    // in.
    TreeFacts facts;
    cafqa::lint::collect_tree_facts(
        "src/core/widget.hpp",
        "#include <unordered_map>\n"
        "struct S {\n"
        "  std::unordered_map<std::uint64_t, std::thread> readers_\n"
        "      GUARDED_BY(mutex_);\n"
        "};\n",
        facts);
    ASSERT_EQ(facts.unordered.count("readers_"), 1u);
    const FileReport report = lint_source(
        "src/core/widget.cpp",
        "void f(S& s) { for (auto& [id, r] : s.readers_) { use(r); } }\n",
        facts);
    EXPECT_EQ(count_rule(report, "unordered-iter"), 1u);
}

TEST(LintRules, ClassicForOverUnorderedIndexIsFine)
{
    const FileReport report = lint_source(
        "buf.cpp",
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> table;\n"
        "void f(const std::vector<int>& keys) {\n"
        "  for (std::size_t i = 0; i < keys.size(); ++i) {\n"
        "    table[keys[i]]++;\n"
        "  }\n"
        "  for (int k : keys) { table[k]++; }\n"
        "}\n");
    EXPECT_TRUE(report.findings.empty())
        << "indexed access and range-for over a vector are fine";
}

TEST(LintFixtures, WallClockInLogicFires)
{
    const FileReport report = lint_file(fixture("bad_wallclock.cpp"));
    EXPECT_EQ(count_rule(report, "wall-clock-in-logic"), 1u);
}

TEST(LintRules, WallClockExemptInTelemetryAndBench)
{
    EXPECT_TRUE(lint_source("src/telemetry/metrics.cpp",
                            "auto t = std::chrono::system_clock::now();\n")
                    .findings.empty());
    EXPECT_TRUE(lint_source("bench/server_load.cpp",
                            "auto t = std::chrono::system_clock::now();\n")
                    .findings.empty());
}

TEST(LintRules, WallClockCarveOutIsPathExact)
{
    // Only src/telemetry/ itself is sanctioned; a file that merely has
    // "telemetry" in its name must route timestamps through
    // telemetry::wall_timestamp_seconds() like everything else.
    EXPECT_EQ(count_rule(lint_source(
                             "src/common/telemetry.cpp",
                             "auto t = std::chrono::system_clock::now();\n"),
                         "wall-clock-in-logic"),
              1u);
    const FileReport report =
        lint_file(fixture("bad_wallclock_telemetry.cpp"));
    EXPECT_EQ(count_rule(report, "wall-clock-in-logic"), 1u)
        << "a telemetry-named file outside src/telemetry/ is not exempt";
}

TEST(LintRules, HardwareConcurrencyQueryIsNotARawThread)
{
    const FileReport report = lint_source(
        "src/core/widget.cpp",
        "auto n = std::thread::hardware_concurrency();\n");
    EXPECT_TRUE(report.findings.empty());
}

TEST(LintRules, AllowMentionsOutsideLineCommentsAreNotDirectives)
{
    const FileReport report = lint_source(
        "buf.cpp",
        "/* docs may say lint:allow(<rule>) without tripping */\n"
        "const char* s = \"lint:allow(nonsense\";\n");
    EXPECT_TRUE(report.findings.empty());
}

TEST(LockRules, BlockingUnderLockFixture)
{
    const FileReport report = lint_file(fixture("bad_blocking.cpp"));
    EXPECT_EQ(count_rule(report, "blocking-under-lock"), 2u)
        << "join under lock + wait on other mutex";
}

TEST(LockRules, BlockingUnderLockIsSuppressibleViaLintAllow)
{
    const FileReport report = lint_source(
        "src/core/widget.cpp",
        "void f() {\n"
        "  cafqa::MutexLock lock(state_mutex_);\n"
        "  // lint:allow(blocking-under-lock) bounded by a timeout\n"
        "  worker_.join();\n"
        "}\n"
        "cafqa::Mutex state_mutex_{\"state_mutex\"};\n");
    EXPECT_TRUE(report.findings.empty());
    EXPECT_EQ(report.allows_used, 1u);
}

TEST(LockRules, NamingConventionsEnforced)
{
    const FileReport report = lint_source(
        "src/core/widget.cpp",
        "cafqa::Mutex anon_mutex_;\n"
        "cafqa::Mutex odd_mutex_{\"completely_else\"};\n"
        "cafqa::Mutex twin_mutex_{\"twin_mutex\"};\n"
        "cafqa::Mutex other_twin_{\"twin_mutex\"};\n");
    EXPECT_EQ(count_rule(report, "unnamed-mutex"), 1u);
    // odd_mutex_ and other_twin_ both break the naming convention.
    EXPECT_EQ(count_rule(report, "mutex-name-mismatch"), 2u);
    const auto duplicate = std::find_if(
        report.findings.begin(), report.findings.end(),
        [](const Finding& f) { return f.rule == "duplicate-mutex"; });
    ASSERT_NE(duplicate, report.findings.end());
    EXPECT_EQ(duplicate->line, 4u);
    EXPECT_NE(duplicate->message.find("src/core/widget.cpp:3"),
              std::string::npos)
        << duplicate->message;
}

TEST(LockRules, RequiresHelperDeclaredInHeaderStartsHeld)
{
    // The header carries the CAFQA_REQUIRES contract; the .cpp defines
    // the helper without it, so the lock is held from the first line.
    TreeFacts facts;
    cafqa::lint::collect_tree_facts(
        "src/core/widget.hpp",
        "struct Q {\n"
        "  void send_locked(int fd) const CAFQA_REQUIRES(write_mutex_);\n"
        "  cafqa::Mutex write_mutex_{\"write_mutex\"};\n"
        "};\n",
        facts);
    const FileReport report = lint_source(
        "src/core/widget.cpp",
        "void Q::send_locked(int fd) const\n"
        "{\n"
        "  ::send(fd, nullptr, 0, 0);\n"
        "}\n"
        "void Q::other(int fd)\n"
        "{\n"
        "  ::send(fd, nullptr, 0, 0);\n"
        "}\n",
        facts);
    ASSERT_EQ(count_rule(report, "blocking-under-lock"), 1u);
    EXPECT_EQ(report.findings[0].line, 3u);
    EXPECT_NE(report.findings[0].message.find("::send() while holding "
                                              "\"write_mutex\""),
              std::string::npos)
        << report.findings[0].message;
}

TEST(LockRules, LambdaBodiesDoNotInheritHeldLocks)
{
    // The lambda runs later on another thread: the enclosing lock is
    // NOT held around its body.
    const FileReport report = lint_source(
        "src/core/widget.cpp",
        "void f() {\n"
        "  cafqa::MutexLock lock(state_mutex_);\n"
        "  auto task = [this] {\n"
        "    worker_.join();\n"
        "  };\n"
        "  pool.submit([&](std::size_t) { worker_.join(); });\n"
        "}\n"
        "cafqa::Mutex state_mutex_{\"state_mutex\"};\n");
    EXPECT_TRUE(report.findings.empty())
        << report.findings.front().line << ": "
        << report.findings.front().message;
}

TEST(LockRules, CallAfterUnlockIsNotFlagged)
{
    // Between unlock() and lock() the mutex is not held.
    const FileReport report = lint_source(
        "src/core/widget.cpp",
        "void f() {\n"
        "  cafqa::MutexLock lock(state_mutex_);\n"
        "  lock.unlock();\n"
        "  worker_.join();\n"
        "  lock.lock();\n"
        "  worker_.join();\n"
        "}\n"
        "cafqa::Mutex state_mutex_{\"state_mutex\"};\n");
    ASSERT_EQ(count_rule(report, "blocking-under-lock"), 1u);
    EXPECT_EQ(report.findings[0].line, 6u);
}

} // namespace
