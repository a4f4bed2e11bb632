# Pins the lint_invariants exit-code contract (see tools/lint_invariants.cpp):
#   - a fixture with findings exits 1, naming the rule and file:line,
#   - --format=github / --format=json carry the same findings,
#   - an unknown option, an unknown format and a missing path exit 2.
# Run via ctest:
#   cmake -DLINT=<exe> -DFIXTURE=<bad_blocking.cpp> -P lint_exit_codes.cmake

if(NOT LINT OR NOT FIXTURE)
  message(FATAL_ERROR "LINT and FIXTURE are required")
endif()

function(run_lint out_var code)
  execute_process(COMMAND ${LINT} ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT result EQUAL ${code})
    message(FATAL_ERROR
            "lint_invariants ${ARGN}: expected exit ${code}, got "
            "'${result}'\nstdout: ${out}\nstderr: ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_contains haystack needle what)
  string(FIND "${haystack}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${what}: expected to find '${needle}' in:\n${haystack}")
  endif()
endfunction()

# The join under state_mutex sits on line 14 of the fixture.
run_lint(out 1 ${FIXTURE})
expect_contains("${out}" "${FIXTURE}:14: [blocking-under-lock]" "text format")

run_lint(out 1 --format=github ${FIXTURE})
expect_contains("${out}" "::error file=${FIXTURE},line=14,title=blocking-under-lock::"
                "github format")
run_lint(out 1 --format=json ${FIXTURE})
expect_contains("${out}" "\"line\": 14, \"rule\": \"blocking-under-lock\"" "json format")

# Usage errors.
run_lint(out 2 --bogus ${FIXTURE})
run_lint(out 2 --format=yaml ${FIXTURE})
run_lint(out 2 ${FIXTURE}.does_not_exist)
