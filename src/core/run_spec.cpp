#include "core/run_spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/text.hpp"

namespace cafqa {

namespace {

[[noreturn]] void
fail_field(const std::string& name, const std::string& why)
{
    CAFQA_REQUIRE(false,
                  "run spec field \"" + name + "\" " + why +
                      " (accepted fields: problem, label, warmup, "
                      "iterations, seed, search, hf-seed, warm-start, "
                      "max-t, tune, tune-backend, tuner, budget, "
                      "target-energy, threads, cache, cache-capacity, "
                      "exact)");
}

std::uint64_t
parse_count_value(const std::string& name, const std::string& text,
                  std::uint64_t min_value)
{
    const auto value = parse_integer_token(text);
    if (!value || *value < 0 ||
        static_cast<std::uint64_t>(*value) < min_value) {
        fail_field(name, "expects an integer >= " +
                             std::to_string(min_value) + ", got \"" +
                             text + "\"");
    }
    return static_cast<std::uint64_t>(*value);
}

double
parse_real_value(const std::string& name, const std::string& text)
{
    const auto value = parse_real_token(text);
    if (!value) {
        fail_field(name,
                   "expects a finite number, got \"" + text + "\"");
    }
    return *value;
}

bool
parse_flag_value(const std::string& name, const std::string& text)
{
    if (text == "1" || text == "true") {
        return true;
    }
    if (text == "0" || text == "false") {
        return false;
    }
    fail_field(name, "expects 0/1/true/false, got \"" + text + "\"");
}

/** Text fields must survive the whitespace-tokenized text form (and
 *  the JSON form's limited escape set), so whitespace and control
 *  characters are rejected at assignment. */
std::string
parse_text_value(const std::string& name, const std::string& value)
{
    for (const char c : value) {
        if (static_cast<unsigned char>(c) < 0x21) {
            fail_field(name, "must not contain whitespace or control "
                             "characters, got \"" + value + "\"");
        }
    }
    return value;
}

/** Comma-separated quarter-turn steps ("1,3,0,2"), each 0..3. */
std::vector<int>
parse_steps_value(const std::string& name, const std::string& text)
{
    const auto bad = [&](const std::string& token) {
        fail_field(name, "expects comma-separated quarter-turn steps, "
                         "each an integer in 0..3 (e.g. "
                         "\"1,3,0,2\"), got \"" + token + "\" in \"" +
                         text + "\"");
    };
    std::vector<int> steps;
    for (const std::string& token : split(text, ',')) {
        const auto value = parse_integer_token(token);
        if (!value || *value < 0 || *value > 3) {
            bad(token);
        }
        steps.push_back(static_cast<int>(*value));
    }
    return steps;
}

/** Render steps back into the serialized comma form. */
std::string
format_steps(const std::vector<int>& steps)
{
    std::string out;
    for (const int step : steps) {
        if (!out.empty()) {
            out += ',';
        }
        out += std::to_string(step);
    }
    return out;
}

/** Apply one `name=value` assignment (shared by both input forms). */
void
assign_field(RunSpec& spec, const std::string& name,
             const std::string& value)
{
    if (name == "problem") {
        spec.problem = parse_text_value(name, value);
    } else if (name == "label") {
        spec.label = parse_text_value(name, value);
    } else if (name == "warmup") {
        spec.warmup = static_cast<std::size_t>(
            parse_count_value(name, value, 1));
    } else if (name == "iterations") {
        spec.iterations = static_cast<std::size_t>(
            parse_count_value(name, value, 1));
    } else if (name == "seed") {
        spec.seed = parse_count_value(name, value, 0);
    } else if (name == "search") {
        spec.search = parse_text_value(name, value);
    } else if (name == "hf-seed") {
        spec.hf_seed = parse_flag_value(name, value);
    } else if (name == "warm-start" || name == "warm_start") {
        spec.warm_start = parse_steps_value("warm-start", value);
    } else if (name == "max-t") {
        spec.max_t = static_cast<std::size_t>(
            parse_count_value(name, value, 0));
    } else if (name == "tune") {
        spec.tune = static_cast<std::size_t>(
            parse_count_value(name, value, 0));
    } else if (name == "tune-backend") {
        spec.tune_backend =
            value == "auto" ? "" : parse_text_value(name, value);
    } else if (name == "tuner") {
        spec.tuner = parse_text_value(name, value);
    } else if (name == "budget") {
        spec.budget = static_cast<std::size_t>(
            parse_count_value(name, value, 1));
    } else if (name == "target-energy") {
        spec.target_energy = parse_real_value(name, value);
    } else if (name == "threads") {
        spec.threads = static_cast<std::size_t>(
            parse_count_value(name, value, 1));
    } else if (name == "cache") {
        spec.cache = parse_flag_value(name, value);
    } else if (name == "cache-capacity") {
        // A nonzero capacity implies the cache at config time
        // (make_pipeline_config), mirroring the CLI's --cache-capacity.
        spec.cache_capacity = static_cast<std::size_t>(
            parse_count_value(name, value, 1));
    } else if (name == "exact") {
        spec.exact = parse_flag_value(name, value);
    } else {
        fail_field(name, "is not a known field");
    }
}

void
require_unseen(std::vector<std::string>& seen, const std::string& name)
{
    for (const auto& existing : seen) {
        if (existing == name) {
            fail_field(name, "appears more than once");
        }
    }
    seen.push_back(name);
}

/** Append the serialized fields of `spec` that differ from defaults,
 *  via a caller-supplied emitter (shared by text and JSON forms). */
template <typename EmitText, typename EmitNumber, typename EmitFlag>
void
emit_fields(const RunSpec& spec, EmitText&& text, EmitNumber&& number,
            EmitFlag&& flag)
{
    const RunSpec defaults;
    text("problem", spec.problem);
    if (spec.label != defaults.label) {
        text("label", spec.label);
    }
    if (spec.warmup != defaults.warmup) {
        number("warmup", std::to_string(spec.warmup));
    }
    if (spec.iterations != defaults.iterations) {
        number("iterations", std::to_string(spec.iterations));
    }
    if (spec.seed != defaults.seed) {
        number("seed", std::to_string(spec.seed));
    }
    if (spec.search != defaults.search) {
        text("search", spec.search);
    }
    if (spec.hf_seed != defaults.hf_seed) {
        flag("hf-seed", spec.hf_seed);
    }
    if (!spec.warm_start.empty()) {
        text("warm-start", format_steps(spec.warm_start));
    }
    if (spec.max_t != defaults.max_t) {
        number("max-t", std::to_string(spec.max_t));
    }
    if (spec.tune != defaults.tune) {
        number("tune", std::to_string(spec.tune));
    }
    if (spec.tune_backend != defaults.tune_backend) {
        text("tune-backend", spec.tune_backend);
    }
    if (spec.tuner != defaults.tuner) {
        text("tuner", spec.tuner);
    }
    if (spec.budget != defaults.budget) {
        number("budget", std::to_string(spec.budget));
    }
    if (spec.target_energy.has_value()) {
        number("target-energy", format_real(*spec.target_energy));
    }
    if (spec.threads != defaults.threads) {
        number("threads", std::to_string(spec.threads));
    }
    if (spec.cache != defaults.cache) {
        flag("cache", spec.cache);
    }
    if (spec.cache_capacity != defaults.cache_capacity) {
        number("cache-capacity", std::to_string(spec.cache_capacity));
    }
    if (spec.exact != defaults.exact) {
        flag("exact", spec.exact);
    }
}

/** First `limit` characters of a jsonl line, elided for error text. */
std::string
line_snippet(const std::string& line, std::size_t limit = 60)
{
    if (line.size() <= limit) {
        return line;
    }
    return line.substr(0, limit) + "...";
}

} // namespace

void
RunSpec::set(const std::string& field, const std::string& value)
{
    assign_field(*this, field, value);
}

RunSpec
RunSpec::parse(const std::string& text)
{
    RunSpec spec;
    std::vector<std::string> seen;
    std::istringstream stream(text);
    std::string token;
    while (stream >> token) {
        const auto equals = token.find('=');
        if (equals == std::string::npos || equals == 0) {
            CAFQA_REQUIRE(false, "run spec token \"" + token +
                                     "\" must look like field=value");
        }
        const std::string name = token.substr(0, equals);
        require_unseen(seen, name);
        assign_field(spec, name, token.substr(equals + 1));
    }
    return spec;
}

RunSpec
RunSpec::from_json(const std::string& json)
{
    RunSpec spec;
    std::vector<std::string> seen;
    for (const JsonField& field : parse_flat_json_object(json)) {
        CAFQA_REQUIRE(field.is_string ||
                          (field.value[0] != '{' && field.value[0] != '['),
                      "run spec field \"" + field.name +
                          "\" must be a string, number or boolean, "
                          "got a nested value");
        require_unseen(seen, field.name);
        assign_field(spec, field.name, field.value);
    }
    return spec;
}

std::string
RunSpec::to_string() const
{
    std::string out;
    const auto token = [&out](const std::string& name,
                              const std::string& value) {
        out += (out.empty() ? "" : " ") + name + "=" + value;
    };
    emit_fields(
        *this, token, token,
        [&token](const std::string& name, bool value) {
            token(name, value ? "1" : "0");
        });
    return out;
}

std::string
RunSpec::to_json() const
{
    std::string out = "{";
    const auto comma = [&out] {
        if (out.size() > 1) {
            out += ",";
        }
    };
    emit_fields(
        *this,
        [&](const std::string& name, const std::string& value) {
            comma();
            out += json_quote(name) + ":" + json_quote(value);
        },
        [&](const std::string& name, const std::string& value) {
            comma();
            out += json_quote(name) + ":" + value;
        },
        [&](const std::string& name, bool value) {
            comma();
            out += json_quote(name) + ":" + (value ? "true" : "false");
        });
    out += "}";
    return out;
}

void
RunSpec::validate() const
{
    CAFQA_REQUIRE(!problem.empty(),
                  "run spec names no problem (set "
                  "problem=<family:instance>, e.g. "
                  "problem=molecule:H2?bond=0.74)");
}

std::vector<RunSpec>
parse_run_specs_jsonl(const std::string& text)
{
    std::vector<RunSpec> specs;
    std::istringstream stream(text);
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(stream, line)) {
        ++line_number;
        const auto start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#') {
            continue;
        }
        try {
            specs.push_back(RunSpec::from_json(line));
        } catch (const std::invalid_argument& error) {
            CAFQA_REQUIRE(false, "jsonl line " +
                                     std::to_string(line_number) + " (" +
                                     line_snippet(line) +
                                     "): " + error.what());
        }
    }
    return specs;
}

PipelineConfig
make_pipeline_config(const RunSpec& spec,
                     const problems::Problem& problem)
{
    PipelineConfig config;
    config.ansatz = problem.ansatz;
    config.objective = problem.objective;
    config.search.warmup = spec.warmup;
    config.search.iterations = spec.iterations;
    config.search.seed = spec.seed;
    config.threads = spec.threads;
    config.tuner.iterations = spec.tune;
    config.tuner.seed = spec.seed + 1;
    config.tuner.backend = spec.tune_backend;
    config.search_optimizer = spec.search;
    config.tuner_optimizer = spec.tuner;
    if (spec.budget > 0) {
        config.stopping.max_evaluations = spec.budget;
    }
    if (spec.target_energy.has_value()) {
        config.stopping.target_value = spec.target_energy;
    }
    if (spec.cache || spec.cache_capacity > 0) {
        CacheOptions options;
        if (spec.cache_capacity > 0) {
            options.capacity = spec.cache_capacity;
        }
        config.cache = std::make_shared<EvaluationCache>(options);
    }
    if (spec.hf_seed) {
        config.search.seed_steps = problem.seed_steps;
    }
    if (!spec.warm_start.empty()) {
        CAFQA_REQUIRE(
            spec.warm_start.size() == problem.ansatz.num_params(),
            "run spec field \"warm-start\" has " +
                std::to_string(spec.warm_start.size()) +
                " steps but problem \"" + problem.key + "\" has " +
                std::to_string(problem.ansatz.num_params()) +
                " ansatz parameters");
        // Warm start rides after the HF point: both are prior-injected
        // seeds, evaluated before the strategy's own exploration.
        config.search.seed_steps.push_back(spec.warm_start);
    }
    return config;
}

} // namespace cafqa
