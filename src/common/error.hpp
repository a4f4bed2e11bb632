/**
 * @file
 * Error handling primitives shared across the CAFQA library.
 *
 * Follows the gem5 fatal/panic distinction: `CAFQA_REQUIRE` guards
 * user-visible preconditions (bad arguments, unsupported inputs) and throws
 * `std::invalid_argument`; `CAFQA_ASSERT` guards internal invariants that
 * indicate a library bug and throws `std::logic_error`. A computation
 * that ran on valid input but cannot vouch for its result throws
 * `CafqaError`.
 */
#ifndef CAFQA_COMMON_ERROR_HPP
#define CAFQA_COMMON_ERROR_HPP

#include <stdexcept>
#include <string>

namespace cafqa {

/** A computation on valid input that cannot vouch for its result, such
 *  as an exact solve stopped at its iteration cap. */
class CafqaError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Throw std::invalid_argument with file/line context. */
[[noreturn]] void throw_require_failure(const char* cond, const char* file,
                                        int line, const std::string& msg);

/** Throw std::logic_error with file/line context. */
[[noreturn]] void throw_assert_failure(const char* cond, const char* file,
                                       int line, const std::string& msg);

} // namespace cafqa

/** Precondition check for user-facing API misuse. */
#define CAFQA_REQUIRE(cond, msg)                                              \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::cafqa::throw_require_failure(#cond, __FILE__, __LINE__, (msg)); \
        }                                                                     \
    } while (0)

/** Internal invariant check; failure indicates a library bug. */
#define CAFQA_ASSERT(cond, msg)                                               \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ::cafqa::throw_assert_failure(#cond, __FILE__, __LINE__, (msg));  \
        }                                                                     \
    } while (0)

#endif // CAFQA_COMMON_ERROR_HPP
