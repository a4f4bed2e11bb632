// Tests for the shared utilities: linear algebra, RNG, tables, the
// string-keyed registry, and the thread pool (including its shutdown
// audit).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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

TEST(TridiagonalEigenvalues, ValuesOnlyMatchFullEigensolveByBits)
{
    // The values-only sweep skips the eigenvector rotations; the values
    // must still be those of symmetric_eigen on the dense matrix, bit
    // for bit, including the ordering of near-degenerate pairs.
    Rng rng(2305);
    for (std::size_t n = 1; n <= 64; n += (n < 8 ? 1 : 7)) {
        std::vector<double> alpha(n);
        std::vector<double> beta(n - 1);
        for (auto& a : alpha) {
            a = rng.normal();
        }
        for (auto& b : beta) {
            // Some couplings vanish, splitting the matrix into blocks.
            b = rng.uniform_int(0, 5) == 0 ? 0.0 : rng.normal();
        }
        Matrix t(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            t(i, i) = alpha[i];
            if (i + 1 < n) {
                t(i, i + 1) = beta[i];
                t(i + 1, i) = beta[i];
            }
        }
        const std::vector<double> got = tridiagonal_eigenvalues(alpha, beta);
        const std::vector<double> want = symmetric_eigen(t).values;
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "n = " << n;
    }
}

/** |bisection - Jacobi| for the lowest eigenvalue of (alpha, beta),
 *  which must stay within the stated `tridiagonal_solver_gap`. */
void
expect_lowest_within_gap(const std::vector<double>& alpha,
                         const std::vector<double>& beta,
                         const std::string& label)
{
    const double jacobi = tridiagonal_eigenvalues(alpha, beta).front();
    const double bisection = lowest_tridiagonal_eigenvalue(alpha, beta);
    EXPECT_LE(std::abs(bisection - jacobi),
              tridiagonal_solver_gap(alpha, beta))
        << label << ": bisection " << bisection << ", Jacobi " << jacobi;
}

TEST(LowestTridiagonalEigenvalue, WithinTheSolverGapOfJacobi)
{
    // Random matrices over six decades of scale, some couplings zero.
    Rng rng(2811);
    for (std::size_t trial = 0; trial < 120; ++trial) {
        const std::size_t n = 1 + trial % 97;
        const double scale = std::pow(10.0, rng.uniform_real(-3.0, 3.0));
        std::vector<double> alpha(n);
        std::vector<double> beta(n - 1);
        for (auto& a : alpha) {
            a = scale * rng.normal();
        }
        for (auto& b : beta) {
            b = rng.uniform_int(0, 5) == 0 ? 0.0 : scale * rng.normal();
        }
        expect_lowest_within_gap(alpha, beta, "trial " + std::to_string(trial));
    }

    // One entry.
    expect_lowest_within_gap({-2.5}, {}, "n = 1");
    expect_lowest_within_gap({0.0}, {}, "n = 1, zero");

    // Zero off-diagonals: the smallest diagonal entry.
    expect_lowest_within_gap({3.0, -1.25, 7.0, -1.25, 0.5},
                             {0.0, 0.0, 0.0, 0.0}, "diagonal");

    // Repeated eigenvalues: two uncoupled copies of Tridiag(-1, 2, -1)
    // (lowest 2 - 2cos(pi/6), twice), and a constant diagonal.
    expect_lowest_within_gap({2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
                              2.0},
                             {-1.0, -1.0, -1.0, -1.0, 0.0, -1.0, -1.0, -1.0,
                              -1.0},
                             "two equal blocks");
    EXPECT_NEAR(lowest_tridiagonal_eigenvalue(
                    {2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0},
                    {-1.0, -1.0, -1.0, -1.0, 0.0, -1.0, -1.0, -1.0, -1.0}),
                2.0 - 2.0 * std::cos(M_PI / 6.0), 1e-14);
    expect_lowest_within_gap(std::vector<double>(12, -4.0),
                             std::vector<double>(11, 0.0), "constant");
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

// The in-tree engine against std::mt19937_64: seeds at both ends of the
// range and the default, over more than three 312-word twists.
const std::uint64_t kEngineSeeds[] = {0, 1, 0x5eed, ~std::uint64_t{0}};
constexpr std::size_t kEngineDraws = 3 * 312 + 157;

TEST(Mt19937_64, CallsMatchTheStdEngine)
{
    for (const std::uint64_t seed : kEngineSeeds) {
        Mt19937_64 engine(seed);
        std::mt19937_64 want(seed);
        for (std::size_t i = 0; i < kEngineDraws; ++i) {
            ASSERT_EQ(engine(), want()) << "seed " << seed << " draw " << i;
        }
    }
    EXPECT_EQ(Mt19937_64()(), std::mt19937_64()());
}

TEST(Mt19937_64, FillInOddPiecesMatchesTheStdEngine)
{
    for (const std::uint64_t seed : kEngineSeeds) {
        Mt19937_64 engine(seed);
        std::mt19937_64 want(seed);
        // Pieces that start and end inside a block, span a whole one,
        // and a lone call between fills.
        std::size_t drawn = 0;
        for (const std::size_t piece : {1, 7, 311, 313, 0, 625, 3}) {
            std::vector<std::uint64_t> got(piece);
            engine.fill(got.data(), piece);
            for (std::size_t i = 0; i < piece; ++i) {
                ASSERT_EQ(got[i], want())
                    << "seed " << seed << " draw " << drawn + i;
            }
            drawn += piece;
            ASSERT_EQ(engine(), want()) << "seed " << seed;
            ++drawn;
        }
        EXPECT_GE(drawn, kEngineDraws);
    }
}

TEST(Mt19937_64, DiscardEqualsThatManyCalls)
{
    for (const std::uint64_t seed : kEngineSeeds) {
        for (const std::uint64_t skip : {0, 1, 311, 312, 313, 1000}) {
            // From the start and from inside a block.
            for (const std::uint64_t offset : {0, 100}) {
                Mt19937_64 engine(seed);
                Mt19937_64 stepped(seed);
                for (std::uint64_t i = 0; i < offset; ++i) {
                    engine();
                    stepped();
                }
                engine.discard(skip);
                for (std::uint64_t i = 0; i < skip; ++i) {
                    stepped();
                }
                for (int i = 0; i < 400; ++i) {
                    ASSERT_EQ(engine(), stepped())
                        << "seed " << seed << " skip " << skip;
                }
            }
        }
    }
}

TEST(Rng, UniformRealsMatchTheStdDistributionByBits)
{
    const std::pair<double, double> ranges[] = {
        {0.0, 1.0}, {-3.2, 3.2}, {0.0, 0.9999999999}, {2.5, 1e6}};
    for (const std::uint64_t seed : kEngineSeeds) {
        for (const auto& [lo, hi] : ranges) {
            Rng rng(seed);
            std::mt19937_64 engine(seed);
            std::uniform_real_distribution<double> want(lo, hi);
            // Blocks that cross the fill's buffer and the engine's
            // twist, then single draws continuing the stream.
            for (const std::size_t n : {1, 311, 600, 1100}) {
                std::vector<double> got(n);
                rng.uniform_reals(lo, hi, got.data(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    const double expected = want(engine);
                    ASSERT_EQ(std::memcmp(&got[i], &expected, sizeof(double)),
                              0)
                        << "seed " << seed << " [" << lo << ", " << hi
                        << ") draw " << i << " of " << n;
                }
                const double single = rng.uniform_real(lo, hi);
                const double expected = want(engine);
                ASSERT_EQ(std::memcmp(&single, &expected, sizeof(double)), 0);
            }
        }
    }
}

/** A generator returning one fixed output, to craft canonical inputs. */
struct FixedOutput
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() const { return value; }
    result_type value;
};

TEST(Rng, CanonicalDoubleMatchesTheStdConversion)
{
    const std::uint64_t top = ~std::uint64_t{0};
    // Outputs that round up to 2^64 and are clamped below 1 (top - 1023
    // is the round-to-even tie), the largest that rounds down, an exact
    // one below 2^64, and small and mid-range values.
    const std::uint64_t crafted[] = {top,
                                     top - 1023,
                                     top - 1024,
                                     top - 2047,
                                     0,
                                     1,
                                     std::uint64_t{1} << 63,
                                     (std::uint64_t{1} << 53) + 1,
                                     (std::uint64_t{1} << 54) + 2,
                                     0x0123456789abcdefULL};
    for (const std::uint64_t x : crafted) {
        FixedOutput engine{x};
        const double want = std::generate_canonical<double, 53>(engine);
        const double got = canonical_double(x);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << x;
        EXPECT_LT(got, 1.0) << x;
    }
    EXPECT_EQ(canonical_double(top), std::nextafter(1.0, 0.0));
    EXPECT_EQ(canonical_double(top - 1023), std::nextafter(1.0, 0.0));
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
    EXPECT_EQ(registry.keys().size(), 1u);
    EXPECT_THROW(registry.get("b"), std::invalid_argument);
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

TEST(Registry, ConcurrentAddAndGet)
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
                const int shared = registry.get("shared");
                EXPECT_GE(shared, 0);
                EXPECT_LT(shared, kRounds);
                EXPECT_EQ(registry.get(own), round);
                EXPECT_GE(registry.keys().size(), 2u);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(registry.keys().size(), 1u + kThreads);
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(registry.get("key" + std::to_string(t)), kRounds - 1);
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
    // job must run to completion with nothing dropped (a pipeline's
    // pool sees exactly this from the arms of a portfolio search).
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

TEST(ThreadPool, NestedParallelForRunsInline)
{
    // A job reaching a pooled kernel calls parallel_for on its own pool:
    // the nested call runs every index on the calling worker, under that
    // worker's id, instead of waiting for the busy pool.
    ThreadPool pool(3);
    constexpr std::size_t kOuter = 12;
    constexpr std::size_t kInner = 40;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    std::atomic<int> elsewhere{0};
    pool.parallel_for(kOuter, [&](std::size_t worker, std::size_t outer) {
        const std::thread::id caller = std::this_thread::get_id();
        pool.parallel_for(kInner, [&](std::size_t inner_worker,
                                      std::size_t inner) {
            if (inner_worker != worker ||
                std::this_thread::get_id() != caller) {
                elsewhere.fetch_add(1, std::memory_order_relaxed);
            }
            hits[outer * kInner + inner].fetch_add(
                1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(elsewhere.load(), 0);
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }

    // The nested call rethrows into the job, and an uncaught one reaches
    // the outer caller.
    const auto throwing = [](std::size_t, std::size_t index) {
        if (index == 5) {
            throw std::runtime_error("inner");
        }
    };
    std::atomic<int> caught{0};
    pool.parallel_for(kOuter, [&](std::size_t, std::size_t) {
        try {
            pool.parallel_for(8, throwing);
        } catch (const std::runtime_error&) {
            caught.fetch_add(1, std::memory_order_relaxed);
        }
    });
    EXPECT_EQ(caught.load(), static_cast<int>(kOuter));
    EXPECT_THROW(pool.parallel_for(kOuter,
                                   [&](std::size_t, std::size_t) {
                                       pool.parallel_for(8, throwing);
                                   }),
                 std::runtime_error);

    // Still usable afterwards.
    std::atomic<std::size_t> done{0};
    pool.parallel_for(32, [&](std::size_t, std::size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 32u);
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
