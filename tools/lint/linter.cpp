#include "lint/linter.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace cafqa::lint {
namespace {

const char* const kIdentChars =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";
const char* const kSpace = " \t\r\n";

bool
is_ident(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * Replace comment bodies and string/char literal contents (delimiters
 * included) with spaces, preserving newlines so offsets keep mapping
 * to the original lines. Handles //, block comments, escapes, digit
 * separators (1'000) and R"delim(...)delim" raw strings.
 */
std::string
blank_comments_and_strings(const std::string& text)
{
    std::string out = text;
    enum class State { Code, Line, Block, Str, Chr, Raw };
    State state = State::Code;
    std::string raw_close; // ")delim\"" that ends the raw string
    for (std::size_t i = 0; i < out.size(); ++i) {
        const char c = out[i];
        const char next = i + 1 < out.size() ? out[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::Line;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::Block;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                const bool raw = i > 0 && out[i - 1] == 'R' &&
                                 (i < 2 || !is_ident(out[i - 2]));
                if (raw) {
                    raw_close = ")";
                    for (std::size_t j = i + 1;
                         j < out.size() && out[j] != '('; ++j) {
                        raw_close += out[j];
                    }
                    raw_close += '"';
                    state = State::Raw;
                } else {
                    state = State::Str;
                }
                out[i] = ' ';
            } else if (c == '\'') {
                // A quote straight after an identifier/digit character
                // is a digit separator (1'000), not a char literal.
                if (i == 0 || !is_ident(out[i - 1])) {
                    state = State::Chr;
                }
                out[i] = ' ';
            }
            break;
          case State::Line:
            if (c == '\n') {
                state = State::Code;
            } else {
                out[i] = ' ';
            }
            break;
          case State::Block:
            if (c == '*' && next == '/') {
                out[i] = out[i + 1] = ' ';
                ++i;
                state = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case State::Str:
          case State::Chr:
            if (c == '\\') {
                out[i] = ' ';
                if (next != '\0' && next != '\n') {
                    out[i + 1] = ' ';
                    ++i;
                }
            } else if ((state == State::Str && c == '"') ||
                       (state == State::Chr && c == '\'')) {
                out[i] = ' ';
                state = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case State::Raw:
            if (c == raw_close[0] &&
                out.compare(i, raw_close.size(), raw_close) == 0) {
                for (std::size_t j = 0; j < raw_close.size(); ++j) {
                    out[i + j] = ' ';
                }
                i += raw_close.size() - 1;
                state = State::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

std::vector<std::string>
split_lines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        lines.push_back(line);
    }
    return lines;
}

/** 1-based line number of `offset` in `text`. */
std::size_t
line_of(const std::string& text, std::size_t offset)
{
    return 1 + static_cast<std::size_t>(
                   std::count(text.begin(),
                              text.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      std::min(offset, text.size())),
                              '\n'));
}

std::string
trim(const std::string& s)
{
    const std::size_t b = s.find_first_not_of(kSpace);
    return b == std::string::npos
               ? std::string()
               : s.substr(b, s.find_last_not_of(kSpace) + 1 - b);
}

bool
path_contains(const std::string& path, const std::string& piece)
{
    return path.find(piece) != std::string::npos;
}

struct Allow
{
    std::string rule;
    bool used = false;
};

/**
 * Parse `lint:allow(<rule>) <reason>` comment directives from the RAW
 * text (they live inside line comments, which the sanitizer blanks).
 * A malformed directive becomes a `bad-allow` finding immediately.
 */
std::map<std::size_t, std::vector<Allow>>
collect_allows(const std::string& path,
               const std::vector<std::string>& raw_lines,
               std::vector<Finding>& findings)
{
    static const std::string kTag = "lint:allow(";
    const std::set<std::string> known(rule_names().begin(),
                                      rule_names().end());
    std::map<std::size_t, std::vector<Allow>> allows;
    for (std::size_t n = 0; n < raw_lines.size(); ++n) {
        const std::string& line = raw_lines[n];
        // Directives live in `//` comments only: a mention inside a
        // string literal or a block-comment prose paragraph (the
        // linter's own sources talk about the syntax) is not one.
        const std::size_t comment = line.find("//");
        if (comment == std::string::npos) {
            continue;
        }
        std::size_t pos = comment;
        while ((pos = line.find(kTag, pos)) != std::string::npos) {
            const std::size_t open = pos + kTag.size();
            const std::size_t close = line.find(')', open);
            pos = open;
            if (close == std::string::npos) {
                findings.push_back({path, n + 1, "bad-allow",
                                    "unterminated lint:allow directive"});
                continue;
            }
            const std::string rule = trim(line.substr(open, close - open));
            const std::string reason = trim(line.substr(close + 1));
            if (known.count(rule) == 0) {
                findings.push_back({path, n + 1, "bad-allow",
                                    "lint:allow names unknown rule '" +
                                        rule + "'"});
                continue;
            }
            if (reason.empty()) {
                findings.push_back(
                    {path, n + 1, "bad-allow",
                     "lint:allow(" + rule +
                         ") needs a reason after the closing paren"});
                continue;
            }
            allows[n + 1].push_back({rule, false});
        }
    }
    return allows;
}

void
check_line_rules(const std::string& path,
                 const std::vector<std::string>& lines,
                 std::vector<Finding>& findings)
{
    static const std::regex rng_re(
        R"(\b(srand|rand)\s*\(|\brandom_device\b)");
    // The negative lookahead keeps `std::thread::hardware_concurrency()`
    // (a query, not a spawn) out of the rule.
    static const std::regex thread_re(R"(\bstd\s*::\s*j?thread\b(?!\s*::))");
    static const std::regex mutex_re(
        R"(\bstd\s*::\s*((recursive_|timed_|recursive_timed_|shared_|shared_timed_)?mutex|condition_variable(_any)?)\b)");
    static const std::regex wall_clock_re(R"(\bsystem_clock\b)");

    // tests/ spawn raw threads on purpose (contention and shutdown
    // scenarios need unmanaged threads the pool would serialize).
    const bool thread_exempt = path_contains(path, "common/thread_pool.") ||
                               path_contains(path, "server/") ||
                               path_contains(path, "tests/");
    const bool mutex_exempt = path_contains(path, "thread_safety.hpp");
    // Wall-clock reads are fine where the point IS wall time: the
    // telemetry subsystem's sanctioned timestamp helper and benchmark
    // harnesses. Path-exact on purpose: a file merely mentioning
    // telemetry in its name (or including the header) earns no
    // exemption — it must call telemetry::wall_timestamp_seconds().
    const bool wall_clock_exempt = path_contains(path, "src/telemetry/") ||
                                   path_contains(path, "bench/");

    for (std::size_t n = 0; n < lines.size(); ++n) {
        const std::string& line = lines[n];
        if (std::regex_search(line, rng_re)) {
            findings.push_back(
                {path, n + 1, "unseeded-rng",
                 "rand()/srand()/std::random_device bypass the seeded "
                 "RNG plumbing; use cafqa's Rng so runs replay"});
        }
        if (!thread_exempt && std::regex_search(line, thread_re)) {
            findings.push_back(
                {path, n + 1, "raw-thread",
                 "raw std::thread outside thread_pool/server; use "
                 "ThreadPool so shutdown and error plumbing apply"});
        }
        if (!mutex_exempt && std::regex_search(line, mutex_re)) {
            findings.push_back(
                {path, n + 1, "naked-mutex",
                 "naked std::mutex/condition_variable; use the "
                 "annotated cafqa::Mutex/CondVar wrappers "
                 "(common/thread_safety.hpp) so -Wthread-safety "
                 "sees the lock"});
        }
        if (!wall_clock_exempt && std::regex_search(line, wall_clock_re)) {
            findings.push_back(
                {path, n + 1, "wall-clock-in-logic",
                 "system_clock in logic makes behaviour depend on wall "
                 "time; use steady_clock for durations, or move "
                 "timestamping into telemetry"});
        }
    }
}

/** Position of the bracket closing the `(`, `[` or `{` at `open`
 *  (`code.size()` if it is unbalanced). */
std::size_t
matching_close(const std::string& code, std::size_t open)
{
    const char opener = code[open];
    const char closer = opener == '(' ? ')' : opener == '[' ? ']' : '}';
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        depth += code[i] == opener ? 1 : code[i] == closer ? -1 : 0;
        if (depth == 0) {
            return i;
        }
    }
    return code.size();
}

std::size_t
skip_ws(const std::string& code, std::size_t i)
{
    return std::min(code.find_first_not_of(kSpace, i), code.size());
}

/** Index of the last non-space character before `i`, or npos. */
std::size_t
prev_sig(const std::string& code, std::size_t i)
{
    return i == 0 ? std::string::npos : code.find_last_not_of(kSpace, i - 1);
}

/** The identifier ending at `last`; empty if there is none. */
std::string
ident_ending_at(const std::string& code, std::size_t last)
{
    if (last == std::string::npos || !is_ident(code[last])) {
        return {};
    }
    const std::size_t before = code.find_last_not_of(kIdentChars, last);
    const std::size_t begin = before == std::string::npos ? 0 : before + 1;
    return code.substr(begin, last + 1 - begin);
}

/** Last identifier in `expr` (`r.factories`, `lock(this->mutex_)`). */
std::string
last_ident(const std::string& expr)
{
    return ident_ending_at(expr, expr.find_last_of(kIdentChars));
}

/**
 * Names declared with an unordered container type. Heuristic: find
 * `unordered_map<...>` (and set/multi variants), angle-match to the
 * closing `>`, and take the identifier that follows (skipping
 * whitespace) as the declared variable. Declarations split across
 * lines and trailing attribute macros both work; `using` aliases are
 * not chased (the alias name is not an identifier-after-`>`).
 */
std::set<std::string>
unordered_names_in_code(const std::string& code)
{
    static const std::regex decl_re(
        R"(\bunordered_(map|set|multimap|multiset)\s*<)");
    std::set<std::string> names;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), decl_re);
         it != std::sregex_iterator(); ++it) {
        std::size_t i =
            static_cast<std::size_t>(it->position() + it->length());
        int depth = 1;
        while (i < code.size() && depth > 0) {
            if (code[i] == '<') {
                ++depth;
            } else if (code[i] == '>' && code[i - 1] != '-') {
                --depth;
            }
            ++i;
        }
        i = skip_ws(code, i);
        const std::string name =
            code.substr(i, code.find_first_not_of(kIdentChars, i) - i);
        if (!name.empty() &&
            !std::isdigit(static_cast<unsigned char>(name[0]))) {
            names.insert(name);
        }
    }
    return names;
}

void
check_unordered_iteration(const std::string& path, const std::string& code,
                          const std::set<std::string>& cross_file_unordered,
                          std::vector<Finding>& findings)
{
    std::set<std::string> names = unordered_names_in_code(code);
    // Cross-file names exist for the header-declares / cpp-iterates
    // split, which only concerns class members — so only take the
    // member-style ones (trailing '_'). Unsuffixed locals like `seen`
    // would otherwise collide across unrelated files.
    for (const std::string& name : cross_file_unordered) {
        if (!name.empty() && name.back() == '_') {
            names.insert(name);
        }
    }
    if (names.empty()) {
        return;
    }
    static const std::regex for_re(R"(\bfor\s*\()");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), for_re);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open =
            static_cast<std::size_t>(it->position() + it->length()) - 1;
        // Find the range-for ':' at paren depth 1 (":" but not "::").
        int depth = 0;
        std::size_t colon = std::string::npos;
        std::size_t close = std::string::npos;
        for (std::size_t i = open; i < code.size(); ++i) {
            const char c = code[i];
            if (c == '(' || c == '[' || c == '{') {
                ++depth;
            } else if (c == ')' || c == ']' || c == '}') {
                --depth;
                if (depth == 0) {
                    close = i;
                    break;
                }
            } else if (c == ':' && depth == 1 &&
                       (i + 1 >= code.size() || code[i + 1] != ':') &&
                       (i == 0 || code[i - 1] != ':')) {
                if (colon == std::string::npos) {
                    colon = i;
                }
            }
        }
        if (colon == std::string::npos || close == std::string::npos) {
            continue; // classic for loop (or unparsable)
        }
        const std::string range =
            code.substr(colon + 1, close - colon - 1);
        // The identifier actually iterated is the last one in the
        // range expression (`jobs_`, `r.factories`, `this->index_`).
        const std::string last = last_ident(range);
        if (!last.empty() && names.count(last) > 0) {
            findings.push_back(
                {path, line_of(code, static_cast<std::size_t>(it->position())),
                 "unordered-iter",
                 "range-for over unordered container '" + last +
                     "'; iteration order is unspecified, so loops that "
                     "feed serialization or output are nondeterministic "
                     "- iterate a sorted view instead"});
        }
    }
}

void
check_catch_swallow(const std::string& path, const std::string& code,
                    std::vector<Finding>& findings)
{
    static const std::regex catch_re(R"(\bcatch\s*\(\s*\.\.\.\s*\)\s*\{)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), catch_re);
         it != std::sregex_iterator(); ++it) {
        const std::size_t brace =
            static_cast<std::size_t>(it->position() + it->length()) - 1;
        const std::size_t end = matching_close(code, brace);
        const std::string body = code.substr(brace + 1, end - brace - 1);
        static const std::regex handled_re(
            R"(\bthrow\b|current_exception)");
        if (!std::regex_search(body, handled_re)) {
            findings.push_back(
                {path, line_of(code, static_cast<std::size_t>(it->position())),
                 "catch-swallow",
                 "catch (...) neither rethrows nor records the error "
                 "(no throw/current_exception in the handler); "
                 "swallowed exceptions hide worker crashes"});
        }
    }
}

/**
 * Name of the function whose parameter list ends just before `pos`,
 * looking past trailing `const`/`noexcept`/`override`/`final` and
 * annotation macros (`CAFQA_REQUIRES(...)`). Empty when `pos` does not
 * follow a parameter list.
 */
std::string
function_before(const std::string& code, std::size_t pos)
{
    static const std::set<std::string> kQualifiers = {"const", "noexcept",
                                                      "override", "final"};
    for (std::size_t p = prev_sig(code, pos); p != std::string::npos;) {
        const std::string qualifier = ident_ending_at(code, p);
        if (kQualifiers.count(qualifier) != 0) {
            p = prev_sig(code, p + 1 - qualifier.size());
            continue;
        }
        if (code[p] != ')') {
            return {};
        }
        for (int depth = 0;; --p) {
            depth += code[p] == ')' ? 1 : code[p] == '(' ? -1 : 0;
            if (depth == 0 || p == 0) {
                break;
            }
        }
        const std::size_t name_end = prev_sig(code, p);
        const std::string name = ident_ending_at(code, name_end);
        if (name.rfind("CAFQA_", 0) != 0) {
            return name;
        }
        p = prev_sig(code, name_end + 1 - name.size());
    }
    return {};
}

/** The thread-safety wrappers and the runtime validator implement the
 *  locking idiom rather than use it. */
bool
lock_exempt(const std::string& path)
{
    return path_contains(path, "thread_safety.hpp") ||
           path_contains(path, "lock_order_check.cpp");
}

struct MutexDecl
{
    std::string ident;
    std::string name; // empty: unnamed
    std::size_t line = 0;
};

/** `cafqa::Mutex` declarations; the registered name is the first
 *  string literal of the initializer, read from the raw `text`. */
std::vector<MutexDecl>
mutex_decls(const std::string& code, const std::string& text)
{
    static const std::regex decl_re(R"(\bMutex\s+([A-Za-z_]\w*)\s*([;{=(]))");
    static const std::regex literal_re("\"([^\"]*)\"");
    std::vector<MutexDecl> decls;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), decl_re);
         it != std::sregex_iterator(); ++it) {
        MutexDecl decl{(*it)[1], "",
                       line_of(code, static_cast<std::size_t>(it->position()))};
        const auto open = static_cast<std::size_t>(it->position(2));
        if (code[open] == '{' || code[open] == '(') {
            const std::string init =
                text.substr(open, matching_close(code, open) - open);
            std::smatch literal;
            if (std::regex_search(init, literal, literal_re)) {
                decl.name = literal[1];
            }
        }
        decls.push_back(decl);
    }
    return decls;
}

/** Registered mutexes and `CAFQA_REQUIRES` contracts of one file. */
void
add_lock_facts(const std::string& path, const std::string& code,
               const std::string& text, TreeFacts& facts)
{
    if (lock_exempt(path)) {
        return;
    }
    for (const MutexDecl& decl : mutex_decls(code, text)) {
        if (!decl.name.empty()) {
            facts.mutex_names.emplace(decl.ident, decl.name);
            facts.first_declaration.emplace(
                decl.name, path + ":" + std::to_string(decl.line));
        }
    }
    static const std::regex requires_re(R"(\bCAFQA_REQUIRES\s*\(([^)]*)\))");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), requires_re);
         it != std::sregex_iterator(); ++it) {
        const std::string function =
            function_before(code, static_cast<std::size_t>(it->position()));
        std::stringstream args(function.empty() ? "" : it->str(1));
        for (std::string arg; std::getline(args, arg, ',');) {
            facts.held_on_entry[function].insert(last_ident(arg));
        }
    }
}

void
check_mutex_names(const std::string& path, const std::string& code,
                  const std::string& text, const TreeFacts& facts,
                  std::vector<Finding>& findings)
{
    for (const MutexDecl& decl : mutex_decls(code, text)) {
        if (decl.name.empty()) {
            if (path_contains(path, "src/")) {
                findings.push_back(
                    {path, decl.line, "unnamed-mutex",
                     "cafqa::Mutex '" + decl.ident +
                         "' has no registered name; pass one so the "
                         "runtime lock-order validator can track it"});
            }
            continue;
        }
        const std::string expected =
            decl.ident.substr(0, decl.ident.find_last_not_of('_') + 1);
        if (decl.name != expected) {
            findings.push_back(
                {path, decl.line, "mutex-name-mismatch",
                 "mutex '" + decl.ident + "' registers name \"" + decl.name +
                     "\"; convention is \"" + expected +
                     "\" (identifier minus trailing underscores)"});
        }
        const std::string& first = facts.first_declaration.at(decl.name);
        if (first != path + ":" + std::to_string(decl.line)) {
            findings.push_back({path, decl.line, "duplicate-mutex",
                                "registered mutex name \"" + decl.name +
                                    "\" already declared at " + first});
        }
    }
}

/** A lock the blocking-under-lock walk considers taken. */
struct Held
{
    std::string var;  // MutexLock variable; empty for a REQUIRES seed
    std::string name; // registered mutex name; empty if unnamed
    int depth = 0;    // brace depth whose closing releases it
    bool active = true;
};

/** `"a", "b"` for the named held locks other than `except`. */
std::string
held_list(const std::vector<Held>& held, const std::string& except = "")
{
    std::string out;
    for (const Held& entry : held) {
        if (entry.active && !entry.name.empty() && entry.name != except) {
            out += (out.empty() ? "\"" : ", \"") + entry.name + "\"";
        }
    }
    return out;
}

/** The blocking-under-lock rule over one file: a lexical walk that
 *  tracks `MutexLock` scopes by brace depth. */
struct LockWalk
{
    const std::string& path;
    const std::string& code;
    const TreeFacts& facts;
    std::vector<Finding>& findings;

    /** Registered name of the mutex `expr` names, or empty. */
    std::string mutex_name(const std::string& expr) const
    {
        const auto named = facts.mutex_names.find(last_ident(expr));
        return named == facts.mutex_names.end() ? "" : named->second;
    }

    /** Walk `[begin, end)` starting from `held`. */
    void walk(std::size_t begin, std::size_t end, std::vector<Held> held)
    {
        int depth = 0;
        for (std::size_t i = begin; i < end;) {
            const char c = code[i];
            if (c == '{') {
                ++depth;
                const auto seeds =
                    facts.held_on_entry.find(function_before(code, i));
                if (seeds != facts.held_on_entry.end()) {
                    for (const std::string& ident : seeds->second) {
                        held.push_back({"", mutex_name(ident), depth, true});
                    }
                }
                ++i;
            } else if (c == '}') {
                --depth;
                std::erase_if(held, [depth](const Held& entry) {
                    return entry.depth > depth;
                });
                ++i;
            } else if (c == '[') {
                i = skip_brackets(i, end);
            } else if (is_ident(c) && (i == 0 || !is_ident(code[i - 1]))) {
                i = word(i, end, depth, held);
            } else {
                ++i;
            }
        }
    }

    /** An attribute, a subscript, or a lambda whose body is walked on
     *  its own: it runs later, on whatever thread calls it, so it
     *  inherits no locks. Returns the index to resume at. */
    std::size_t skip_brackets(std::size_t i, std::size_t end)
    {
        if (i + 1 < end && code[i + 1] == '[') {
            return std::min(code.find("]]", i + 2), end - 2) + 2;
        }
        const std::size_t prev = prev_sig(code, i);
        if (prev != std::string::npos &&
            (code[prev] == ')' || code[prev] == ']' ||
             (is_ident(code[prev]) &&
              ident_ending_at(code, prev) != "return"))) {
            return i + 1; // subscript
        }
        const std::size_t captures = matching_close(code, i);
        std::size_t body = skip_ws(code, captures + 1);
        if (body < end && code[body] == '(') {
            body = skip_ws(code, matching_close(code, body) + 1);
        }
        body = std::min(code.find_first_of("{;,)", body), end);
        if (body == end || code[body] != '{') {
            return captures + 1;
        }
        const std::size_t close = matching_close(code, body);
        walk(body + 1, close, {});
        return close + 1;
    }

    /** The identifier at `i`: a `MutexLock` declaration or a call.
     *  Returns the index to resume at. */
    std::size_t word(std::size_t i, std::size_t end, int depth,
                     std::vector<Held>& held)
    {
        const std::size_t wend =
            std::min(code.find_first_not_of(kIdentChars, i), end);
        const std::string name = code.substr(i, wend - i);
        const std::size_t open = skip_ws(code, wend);
        if (name == "MutexLock") {
            const std::size_t vend =
                std::min(code.find_first_not_of(kIdentChars, open), end);
            const std::size_t init = skip_ws(code, vend);
            if (vend == open || init >= end ||
                (code[init] != '(' && code[init] != '{')) {
                return wend;
            }
            const std::size_t close = matching_close(code, init);
            held.push_back(
                {code.substr(open, vend - open),
                 mutex_name(code.substr(init + 1, close - init - 1)), depth,
                 true});
            return close + 1;
        }
        if (open < end && code[open] == '(') {
            call(i, name, open, held);
        }
        return wend;
    }

    void call(std::size_t i, const std::string& name, std::size_t open,
              std::vector<Held>& held)
    {
        const std::size_t prev = prev_sig(code, i);
        const char p = prev == std::string::npos ? ' ' : code[prev];
        const char pp = prev == std::string::npos || prev == 0 ? ' '
                                                               : code[prev - 1];
        const bool member = p == '.' || (p == '>' && pp == '-');
        const bool colons = p == ':' && pp == ':';
        // The receiver (`lock` in `lock.unlock()`) or namespace.
        const std::size_t before = prev_sig(code, p == '.' ? prev : prev - 1);
        const std::string qualifier =
            member || colons ? ident_ending_at(code, before) : "";
        if (member && (name == "unlock" || name == "lock")) {
            for (auto it = held.rbegin(); it != held.rend(); ++it) {
                if (!it->var.empty() && it->var == qualifier) {
                    it->active = name == "lock";
                    break;
                }
            }
            return;
        }
        if (member && name == "wait") {
            // CondVar::wait(lock): only OTHER held mutexes block here.
            const std::string args =
                code.substr(open + 1, matching_close(code, open) - open - 1);
            const std::string var = last_ident(args.substr(0, args.find(',')));
            const auto lock =
                std::find_if(held.begin(), held.end(), [&var](const Held& h) {
                    return !h.var.empty() && h.var == var;
                });
            if (lock != held.end()) {
                const std::string others = held_list(held, lock->name);
                if (!others.empty()) {
                    flag(i, "CondVar::wait on \"" + lock->name +
                                "\" while also holding " + others);
                }
                return;
            }
        }
        static const std::set<std::string> kSocketCalls = {
            "send", "recv", "accept", "connect", "poll"};
        static const std::set<std::string> kBlockingCalls = {
            "parallel_for", "execute_run_spec", "sleep_for", "sleep_until",
            "join"};
        const bool global = colons && qualifier.empty();
        const std::string holding = held_list(held);
        if (!holding.empty() && ((global && kSocketCalls.count(name) != 0) ||
                                 kBlockingCalls.count(name) != 0)) {
            flag(i, "blocking call " + std::string(global ? "::" : "") +
                        name + "() while holding " + holding);
        }
    }

    void flag(std::size_t pos, const std::string& message)
    {
        findings.push_back(
            {path, line_of(code, pos), "blocking-under-lock", message});
    }
};

} // namespace

const std::vector<std::string>&
rule_names()
{
    static const std::vector<std::string> kRules = {
        "unseeded-rng",        "raw-thread",
        "unordered-iter",      "naked-mutex",
        "catch-swallow",       "wall-clock-in-logic",
        "blocking-under-lock", "unnamed-mutex",
        "mutex-name-mismatch", "duplicate-mutex",
    };
    return kRules;
}

void
collect_tree_facts(const std::string& display_path, const std::string& text,
                   TreeFacts& facts)
{
    const std::string code = blank_comments_and_strings(text);
    const std::set<std::string> names = unordered_names_in_code(code);
    facts.unordered.insert(names.begin(), names.end());
    add_lock_facts(display_path, code, text, facts);
}

FileReport
lint_source(const std::string& display_path, const std::string& text,
            const TreeFacts& tree)
{
    FileReport report;
    const std::vector<std::string> raw_lines = split_lines(text);
    auto allows = collect_allows(display_path, raw_lines, report.findings);

    const std::string code = blank_comments_and_strings(text);
    const std::vector<std::string> code_lines = split_lines(code);

    std::vector<Finding> candidates;
    check_line_rules(display_path, code_lines, candidates);
    check_unordered_iteration(display_path, code, tree.unordered, candidates);
    check_catch_swallow(display_path, code, candidates);
    if (!lock_exempt(display_path)) {
        TreeFacts facts = tree;
        add_lock_facts(display_path, code, text, facts);
        check_mutex_names(display_path, code, text, facts, candidates);
        LockWalk{display_path, code, facts, candidates}.walk(0, code.size(),
                                                             {});
    }

    // Resolve each allow to the line it suppresses: a trailing allow
    // (code before the comment) covers its own line; an allow on a
    // comment-only line covers the next line that has code, so a
    // reason may wrap over several comment lines.
    const auto blank = [&code_lines](std::size_t line) {
        return line > code_lines.size() ||
               trim(code_lines[line - 1]).empty();
    };
    std::map<std::size_t, std::vector<Allow>> targeted;
    for (auto& [line, allow_list] : allows) {
        std::size_t target = line;
        if (blank(target)) {
            do {
                ++target;
            } while (target <= code_lines.size() && blank(target));
        }
        auto& bucket = targeted[target];
        bucket.insert(bucket.end(), allow_list.begin(), allow_list.end());
    }

    for (Finding& finding : candidates) {
        bool suppressed = false;
        auto it = targeted.find(finding.line);
        if (it != targeted.end()) {
            for (Allow& allow : it->second) {
                if (allow.rule == finding.rule) {
                    allow.used = true;
                    suppressed = true;
                    break;
                }
            }
        }
        if (suppressed) {
            ++report.allows_used;
        } else {
            report.findings.push_back(std::move(finding));
        }
    }
    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding& a, const Finding& b) {
                  return a.line < b.line ||
                         (a.line == b.line && a.rule < b.rule);
              });
    return report;
}

FileReport
lint_file(const std::string& path, const TreeFacts& tree)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        FileReport report;
        report.findings.push_back(
            {path, 0, "io-error", "cannot open file"});
        return report;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return lint_source(path, buffer.str(), tree);
}

std::map<std::string, std::size_t>
rule_hits(const std::vector<Finding>& findings)
{
    std::map<std::string, std::size_t> hits;
    for (const Finding& finding : findings) {
        ++hits[finding.rule];
    }
    return hits;
}

} // namespace cafqa::lint
