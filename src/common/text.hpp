/**
 * @file
 * Small shared text-formatting helpers: shortest round-trip decimal
 * rendering of doubles (canonical problem keys, spec serialization,
 * JSON numbers), JSON string quoting, and list joining and splitting.
 * One definition each, so every emitter in the tree escapes and
 * formats identically.
 */
#ifndef CAFQA_COMMON_TEXT_HPP
#define CAFQA_COMMON_TEXT_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cafqa {

/**
 * The shortest decimal representation that parses back to exactly
 * `value` (std::to_chars): "2.2" stays "2.2", not "2.2000000000000002".
 * Requires a finite value.
 */
std::string format_real(double value);

/** `text` as a quoted JSON string: quotes/backslashes/control
 *  characters escaped (control characters as \uXXXX). */
std::string json_quote(const std::string& text);

/** `items` joined by `separator` ("a, b, c" for ", "). */
std::string join(const std::vector<std::string>& items,
                 const std::string& separator);

/** `text` cut at every `separator`, empty pieces kept ("a,,b" gives
 *  {"a", "", "b"}; "" gives {""}). */
std::vector<std::string> split(const std::string& text, char separator);

/**
 * Strict whole-token integer parse: nullopt unless the entire token is
 * a decimal integer within range (rejects "abc", "12x", "", overflow).
 * Call sites attach their own context to the error they raise.
 */
std::optional<std::int64_t> parse_integer_token(const std::string& text);

/** Strict whole-token finite-double parse: nullopt unless the entire
 *  token is a finite number (rejects "nan", "inf", trailing garbage). */
std::optional<double> parse_real_token(const std::string& text);

/** One field of a flat JSON object, in source order. */
struct JsonField
{
    std::string name;
    /** Decoded text when `is_string`; otherwise the raw source slice
     *  of the value (a scalar token, or a balanced nested object /
     *  array kept verbatim for pass-through). */
    std::string value;
    bool is_string = false;
};

/**
 * Parse one flat JSON object `{"name": value, ...}` — the shape every
 * serializer in this tree emits (RunSpec, RunRecord, CacheStats, the
 * job-server protocol). String values are unescaped; numbers, booleans
 * and null come back as raw tokens for the caller's strict parsers;
 * nested objects/arrays come back as raw balanced text (pass-through,
 * not recursed into). Duplicate names are NOT rejected here — callers
 * with that contract check the returned list. Throws
 * `std::invalid_argument` naming the defect and the offending text.
 */
std::vector<JsonField> parse_flat_json_object(const std::string& text);

/** The field named `name`, or nullptr. */
const JsonField* find_json_field(const std::vector<JsonField>& fields,
                                 const std::string& name);

} // namespace cafqa

#endif // CAFQA_COMMON_TEXT_HPP
