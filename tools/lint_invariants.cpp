/**
 * @file
 * `lint_invariants` — walk C++ sources and enforce the project
 * invariants documented in tools/lint/linter.hpp.
 *
 *   lint_invariants [options] <file-or-directory>...
 *
 *   --list-rules              print rule names and exit
 *   --format=text|json|github output format (default text)
 *
 * Directories are walked recursively for .hpp/.h/.hh/.cpp/.cc/.cxx
 * files (deterministic sorted order); `lint_fixtures` and
 * `negative_compile` subtrees are skipped unless named explicitly.
 * Text output: one `file:line: [rule] message` per finding, then a
 * per-rule hit summary for CI logs.
 *
 * Exit codes:
 *   0  clean (honoured `lint:allow` suppressions are fine)
 *   1  at least one finding
 *   2  usage error, nonexistent path, or unreadable file
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/linter.hpp"

namespace fs = std::filesystem;

namespace {

bool
lintable(const fs::path& path)
{
    static const std::set<std::string> kExtensions = {".hpp", ".h",  ".hh",
                                                      ".cpp", ".cc", ".cxx"};
    return kExtensions.count(path.extension().string()) != 0;
}

/** Subtrees that exist to FAIL the linter; a directory walk skips
 *  them (naming a fixture file explicitly still lints it). */
bool
excluded_dir(const fs::path& path)
{
    const std::string name = path.filename().string();
    return name == "lint_fixtures" || name == "negative_compile";
}

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') { out += '\\'; }
        out += c;
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> files;
    std::string format = "text";
    bool saw_path = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-rules") {
            for (const std::string& rule : cafqa::lint::rule_names()) {
                std::printf("%s\n", rule.c_str());
            }
            return 0;
        }
        if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: lint_invariants [--list-rules] "
                "[--format=text|json|github] <path>...\n");
            return 0;
        }
        if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
            if (format != "text" && format != "json" && format != "github") {
                std::fprintf(stderr,
                             "lint_invariants: unknown format: %s\n",
                             format.c_str());
                return 2;
            }
            continue;
        }
        if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "lint_invariants: unknown option: %s\n",
                         arg.c_str());
            return 2;
        }
        saw_path = true;
        std::error_code ec;
        if (fs::is_directory(arg, ec)) {
            fs::recursive_directory_iterator it(arg);
            for (; it != fs::recursive_directory_iterator();) {
                if (it->is_directory() && excluded_dir(it->path())) {
                    it.disable_recursion_pending();
                } else if (it->is_regular_file() && lintable(it->path())) {
                    files.push_back(it->path().generic_string());
                }
                ++it;
            }
        } else if (fs::is_regular_file(arg, ec)) {
            files.push_back(arg);
        } else {
            std::fprintf(stderr, "lint_invariants: no such path: %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (!saw_path) {
        std::fprintf(stderr,
                     "usage: lint_invariants [options] <path>...\n");
        return 2;
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Phase 1: read everything once and collect the tree-wide facts
    // (unordered container names, registered mutexes, REQUIRES
    // contracts): a header declares what the matching .cpp uses.
    cafqa::lint::TreeFacts facts;
    std::vector<std::optional<std::string>> contents(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::ifstream in(files[i], std::ios::binary);
        if (in) {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            contents[i] = buffer.str();
            cafqa::lint::collect_tree_facts(files[i], *contents[i], facts);
        }
    }

    // Phase 2: lint each file against those facts.
    std::vector<cafqa::lint::Finding> findings;
    std::size_t allows_used = 0;
    for (std::size_t i = 0; i < files.size(); ++i) {
        cafqa::lint::FileReport report =
            contents[i]
                ? cafqa::lint::lint_source(files[i], *contents[i], facts)
                : cafqa::lint::lint_file(files[i], facts);
        allows_used += report.allows_used;
        findings.insert(findings.end(), report.findings.begin(),
                        report.findings.end());
    }

    bool io_error = false;
    for (const auto& finding : findings) {
        io_error = io_error || finding.rule == "io-error";
    }
    if (format == "json") {
        std::printf("{\n  \"files\": %zu,\n  \"allows_used\": %zu,\n"
                    "  \"findings\": [",
                    files.size(), allows_used);
        for (std::size_t i = 0; i < findings.size(); ++i) {
            const auto& f = findings[i];
            std::printf("%s    {\"file\": \"%s\", \"line\": %zu, "
                        "\"rule\": \"%s\", \"message\": \"%s\"}",
                        i == 0 ? "\n" : ",\n", json_escape(f.file).c_str(),
                        f.line, json_escape(f.rule).c_str(),
                        json_escape(f.message).c_str());
        }
        std::printf("\n  ]\n}\n");
    } else if (format == "github") {
        for (const auto& f : findings) {
            std::printf("::error file=%s,line=%zu,title=%s::%s\n",
                        f.file.c_str(), f.line, f.rule.c_str(),
                        f.message.c_str());
        }
    } else {
        for (const auto& f : findings) {
            std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                        f.rule.c_str(), f.message.c_str());
        }
        // Rule-hit summary (one stable block CI can grep / publish).
        std::printf("lint_invariants: %zu file(s), %zu finding(s), "
                    "%zu allow(s) honoured\n",
                    files.size(), findings.size(), allows_used);
        for (const auto& [rule, hits] : cafqa::lint::rule_hits(findings)) {
            std::printf("  %-16s %zu\n", rule.c_str(), hits);
        }
    }

    if (io_error) {
        return 2;
    }
    return findings.empty() ? 0 : 1;
}
