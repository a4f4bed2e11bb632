// Tests for the shared utilities: linear algebra, RNG, tables, the
// string-keyed registry, and the thread pool (including its shutdown
// audit).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/linalg.hpp"
#include "common/registry.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace cafqa {
namespace {

TEST(Matrix, BasicOps)
{
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 3.0;
    a(1, 1) = 4.0;
    const Matrix at = a.transpose();
    EXPECT_EQ(at(0, 1), 3.0);
    const Matrix prod = a * Matrix::identity(2);
    EXPECT_EQ(prod.max_abs_diff(a), 0.0);
    Matrix sum = a + a;
    EXPECT_EQ(sum(1, 1), 8.0);
    sum *= 0.5;
    EXPECT_EQ(sum.max_abs_diff(a), 0.0);
}

TEST(SymmetricEigen, DiagonalMatrix)
{
    Matrix a(3, 3);
    a(0, 0) = 3.0;
    a(1, 1) = 1.0;
    a(2, 2) = 2.0;
    const SymmetricEigen eig = symmetric_eigen(a);
    EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
    EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
    EXPECT_NEAR(eig.values[2], 3.0, 1e-12);
}

TEST(SymmetricEigen, ReconstructsMatrix)
{
    Rng rng(17);
    const std::size_t n = 6;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            a(i, j) = a(j, i) = rng.normal();
        }
    }
    const SymmetricEigen eig = symmetric_eigen(a);
    // A == V diag(w) V^T
    Matrix reconstructed(n, n);
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                reconstructed(i, j) +=
                    eig.vectors(i, k) * eig.values[k] * eig.vectors(j, k);
            }
        }
    }
    EXPECT_LT(a.max_abs_diff(reconstructed), 1e-10);

    // Eigenvectors are orthonormal.
    const Matrix vtv = eig.vectors.transpose() * eig.vectors;
    EXPECT_LT(vtv.max_abs_diff(Matrix::identity(n)), 1e-10);
}

TEST(SolveLinear, RandomSystems)
{
    Rng rng(23);
    const std::size_t n = 5;
    Matrix a(n, n);
    std::vector<double> x_true(n);
    for (std::size_t i = 0; i < n; ++i) {
        x_true[i] = rng.normal();
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = rng.normal();
        }
        a(i, i) += 4.0; // diagonally dominant, safely nonsingular
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            b[i] += a(i, j) * x_true[j];
        }
    }
    const std::vector<double> x = solve_linear(a, b);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i], x_true[i], 1e-10);
    }
}

TEST(SolveLinear, SingularThrows)
{
    Matrix a(2, 2); // all zeros
    EXPECT_THROW(solve_linear(a, {1.0, 2.0}), std::invalid_argument);
}

TEST(InverseSqrt, SatisfiesDefinition)
{
    Rng rng(5);
    const std::size_t n = 4;
    // Build a well-conditioned SPD matrix A = B B^T + I.
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            b(i, j) = rng.normal();
        }
    }
    Matrix a = b * b.transpose();
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) += 1.0;
    }
    const Matrix s = inverse_sqrt(a);
    const Matrix should_be_identity = s * a * s;
    EXPECT_LT(should_be_identity.max_abs_diff(Matrix::identity(n)), 1e-9);
}

TEST(TridiagonalEigenvalues, KnownValues)
{
    // Tridiag(-1, 2, -1) of size n has eigenvalues 2 - 2cos(k pi/(n+1)).
    const std::size_t n = 8;
    std::vector<double> alpha(n, 2.0);
    std::vector<double> beta(n - 1, -1.0);
    const std::vector<double> values = tridiagonal_eigenvalues(alpha, beta);
    for (std::size_t k = 1; k <= n; ++k) {
        const double expected =
            2.0 - 2.0 * std::cos(k * M_PI / static_cast<double>(n + 1));
        EXPECT_NEAR(values[k - 1], expected, 1e-10);
    }
}

TEST(Rng, Reproducibility)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(-3, 7);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, SampleWithoutReplacement)
{
    Rng rng(2);
    const auto sample = rng.sample_without_replacement(10, 6);
    EXPECT_EQ(sample.size(), 6u);
    const std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 6u);
    for (const auto v : sample) {
        EXPECT_LT(v, 10u);
    }
    EXPECT_THROW(rng.sample_without_replacement(3, 4),
                 std::invalid_argument);
}

TEST(Rng, RademacherIsBalanced)
{
    Rng rng(3);
    int sum = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; ++i) {
        sum += rng.rademacher();
    }
    EXPECT_LT(std::abs(sum), 400); // ~4 sigma
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.set_header({"name", "value"});
    t.add_row({"alpha", Table::num(1.5, 2)});
    t.add_row({"b", Table::sci(0.000123, 2)});
    std::ostringstream out;
    t.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("1.50"), std::string::npos);
    EXPECT_NE(text.find("1.23e-04"), std::string::npos);
}

TEST(Table, RowWidthValidation)
{
    Table t("demo");
    t.set_header({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Registry, AddReplacesAnExistingEntry)
{
    Registry<int> registry("widget", "", {{"a", 1}});
    EXPECT_EQ(registry.get("a"), 1);
    registry.add("a", 2);
    EXPECT_EQ(registry.get("a"), 2);
    EXPECT_EQ(registry.find("a"), 2);
    EXPECT_EQ(registry.keys().size(), 1u);
    EXPECT_FALSE(registry.find("b").has_value());
}

TEST(Registry, KeysAreSorted)
{
    Registry<int> registry("widget", "", {{"m", 0}, {"c", 0}});
    registry.add("x", 0);
    registry.add("a", 0);
    EXPECT_EQ(registry.keys(),
              (std::vector<std::string>{"a", "c", "m", "x"}));
}

TEST(Registry, UnknownKeyErrorListsEveryKeyAndTheHint)
{
    Registry<int> registry("widget kind", "try \"prefix:<kind>\"",
                           {{"beta", 0}, {"alpha", 0}});
    try {
        registry.get("gamma", " in spec \"s\"");
        FAIL() << "get returned for an unknown key";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("unknown widget kind \"gamma\" in spec "
                               "\"s\" (registered: alpha, beta; try "
                               "\"prefix:<kind>\")"),
                  std::string::npos)
            << message;
    }
    // Without a hint the list closes right after the last key.
    const Registry<int> bare("widget", "", {{"only", 0}});
    try {
        bare.get("nope");
        FAIL() << "get returned for an unknown key";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("unknown widget \"nope\" (registered: "
                               "only)"),
                  std::string::npos)
            << message;
    }
}

TEST(Registry, ConcurrentAddAndFind)
{
    // Writers replace and insert while readers look up and list; run
    // under TSan this is the registry's data-race check.
    Registry<int> registry("widget", "", {{"shared", 0}});
    constexpr int kThreads = 4;
    static constexpr int kRounds = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, t] {
            const std::string own = "key" + std::to_string(t);
            for (int round = 0; round < kRounds; ++round) {
                registry.add("shared", round);
                registry.add(own, round);
                const std::optional<int> shared = registry.find("shared");
                ASSERT_TRUE(shared.has_value());
                EXPECT_GE(*shared, 0);
                EXPECT_LT(*shared, kRounds);
                EXPECT_EQ(registry.find(own), round);
                EXPECT_GE(registry.keys().size(), 2u);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(registry.keys().size(), 1u + kThreads);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(registry.find("key" + std::to_string(t)), kRounds - 1);
    }
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 997;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount, [&](std::size_t worker, std::size_t index) {
        ASSERT_LT(worker, pool.size());
        hits[index].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, PropagatesTheFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](std::size_t, std::size_t index) {
                              if (index == 17) {
                                  throw std::runtime_error("boom");
                              }
                          }),
        std::runtime_error);
    // The pool must stay usable after a throwing job.
    std::atomic<std::size_t> done{0};
    pool.parallel_for(32, [&](std::size_t, std::size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 32u);
}

TEST(ThreadPool, ConcurrentCallersAreSerializedNotLost)
{
    // Several threads funneling jobs through ONE pool at once: every
    // job must run to completion with nothing dropped (the shared()
    // pool sees exactly this from concurrent searches).
    ThreadPool pool(3);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kPerJob = 100;
    std::atomic<std::size_t> total{0};
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&pool, &total] {
            for (int round = 0; round < 5; ++round) {
                pool.parallel_for(kPerJob,
                                  [&](std::size_t, std::size_t) {
                                      total.fetch_add(
                                          1, std::memory_order_relaxed);
                                  });
            }
        });
    }
    for (std::thread& caller : callers) {
        caller.join();
    }
    EXPECT_EQ(total.load(), kCallers * 5 * kPerJob);
}

TEST(ThreadPool, ShutdownStressNeverDropsTasks)
{
    // Destructor-vs-pending-work stress for the shutdown audit: pools
    // are torn down immediately after (and racing against) the tail
    // of a parallel_for. Every index must still have run — the audit
    // asserts inside the pool that no worker stops with tasks
    // pending, and this loop hammers the stop-flag/worker-wake
    // window where a lost task would hide.
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> ran{0};
        {
            ThreadPool pool(4);
            pool.parallel_for(23, [&](std::size_t, std::size_t) {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        } // pool destroyed here, right on the heels of the job
        ASSERT_EQ(ran.load(), 23u) << "round " << round;
    }
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    std::size_t count = 0;
    pool.parallel_for(10, [&](std::size_t worker, std::size_t) {
        EXPECT_EQ(worker, 0u);
        ++count; // inline execution: no synchronization needed
    });
    EXPECT_EQ(count, 10u);
}

} // namespace
} // namespace cafqa
