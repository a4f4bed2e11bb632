#include "common/text.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace cafqa {

namespace {

/** Cursor over one flat JSON object. Kept deliberately minimal: the
 *  only JSON this project reads is JSON this project (or its clients)
 *  wrote, so exotica (unicode escapes in, exponent validation, deep
 *  recursion) stays out. */
class FlatJsonCursor
{
  public:
    explicit FlatJsonCursor(const std::string& text) : text_(text) {}

    void
    expect(char c)
    {
        skip_space();
        if (pos_ >= text_.size() || text_[pos_] != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool
    consume(char c)
    {
        skip_space();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    char
    peek()
    {
        skip_space();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    std::string
    string_value()
    {
        skip_space();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            fail("expected a string");
        }
        ++pos_;
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    fail("dangling escape");
                }
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'n': c = '\n'; break;
                  case 'r': c = '\r'; break;
                  case 't': c = '\t'; break;
                  default: fail("unsupported string escape");
                }
            }
            out += c;
        }
        if (pos_ >= text_.size()) {
            fail("unterminated string");
        }
        ++pos_; // closing quote
        return out;
    }

    /** A number/true/false/null token, returned as raw text for the
     *  caller's strict parsers. */
    std::string
    scalar_value()
    {
        skip_space();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '+' || text_[pos_] == '-' ||
                text_[pos_] == '.')) {
            ++pos_;
        }
        if (pos_ == start) {
            fail("expected a value");
        }
        return text_.substr(start, pos_ - start);
    }

    /** A nested object or array as its raw balanced source slice
     *  (strings honored so braces inside them don't count). */
    std::string
    nested_value()
    {
        skip_space();
        const std::size_t start = pos_;
        const char open = text_[pos_];
        const char close = open == '{' ? '}' : ']';
        std::size_t depth = 0;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                string_value();
                continue;
            }
            ++pos_;
            if (c == open) {
                ++depth;
            } else if (c == close && --depth == 0) {
                return text_.substr(start, pos_ - start);
            }
        }
        fail("unbalanced nested value");
    }

    void
    expect_end()
    {
        skip_space();
        if (pos_ != text_.size()) {
            fail("trailing content after the object");
        }
    }

  private:
    void
    skip_space()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    [[noreturn]] void
    fail(const std::string& why) const
    {
        CAFQA_REQUIRE(false,
                      "malformed flat JSON object (" + why +
                          ") in: " + text_);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

} // namespace

std::string
format_real(double value)
{
    char buffer[32];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    CAFQA_ASSERT(ec == std::errc{}, "double formatting failed");
    return std::string(buffer, end);
}

std::string
join(const std::vector<std::string>& items, const std::string& separator)
{
    std::string out;
    for (const std::string& item : items) {
        out += out.empty() ? item : separator + item;
    }
    return out;
}

std::vector<std::string>
split(const std::string& text, char separator)
{
    std::vector<std::string> pieces(1);
    for (const char c : text) {
        if (c == separator) {
            pieces.emplace_back();
        } else {
            pieces.back() += c;
        }
    }
    return pieces;
}

std::string
json_quote(const std::string& text)
{
    std::string out = "\"";
    for (const char raw : text) {
        const unsigned char c = static_cast<unsigned char>(raw);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (c < 0x20) {
                char escaped[8];
                std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
                out += escaped;
            } else {
                out += raw;
            }
            break;
        }
    }
    out += '"';
    return out;
}

std::optional<std::int64_t>
parse_integer_token(const std::string& text)
{
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
        return std::nullopt;
    }
    return static_cast<std::int64_t>(value);
}

std::optional<double>
parse_real_token(const std::string& text)
{
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value)) {
        return std::nullopt;
    }
    return value;
}

std::vector<JsonField>
parse_flat_json_object(const std::string& text)
{
    std::vector<JsonField> fields;
    FlatJsonCursor cursor(text);
    cursor.expect('{');
    if (!cursor.consume('}')) {
        do {
            JsonField field;
            field.name = cursor.string_value();
            cursor.expect(':');
            const char head = cursor.peek();
            if (head == '"') {
                field.value = cursor.string_value();
                field.is_string = true;
            } else if (head == '{' || head == '[') {
                field.value = cursor.nested_value();
            } else {
                field.value = cursor.scalar_value();
            }
            fields.push_back(std::move(field));
        } while (cursor.consume(','));
        cursor.expect('}');
    }
    cursor.expect_end();
    return fields;
}

const JsonField*
find_json_field(const std::vector<JsonField>& fields,
                const std::string& name)
{
    for (const JsonField& field : fields) {
        if (field.name == name) {
            return &field;
        }
    }
    return nullptr;
}

} // namespace cafqa
