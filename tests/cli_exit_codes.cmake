# A malformed or out-of-range numeric flag must end a binary with the flag
# parser's message and exit code 2, as an unknown flag does — never with an
# uncaught exception (abort, exit 134). Registered with ctest as
#   cmake -DBIN_DIR=<dir of the built binaries> -P tests/cli_exit_codes.cmake
set(cases
  "bench_serve|--smoke|--workers|99999999999999999999"
  "bench_serve|--smoke|--requests|12abc"
  "bench_serve|--smoke|--rate|fast"
  "custom_model|--epochs|-99999999999999999999"
  "custom_model|--sigma-scale|1.5x"
  "drift_study|--samples|1.5"
  "drift_study|--nu|high"
  "bench_serve|--smoke|--no-such-flag")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" argv "${case}")
  list(POP_FRONT argv bin)
  execute_process(COMMAND "${BIN_DIR}/${bin}" ${argv}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "'${case}': exit ${rc}, expected 2\n${err}")
  endif()
  if(NOT err MATCHES "^${bin}: ")
    message(FATAL_ERROR "'${case}': no parser message on stderr:\n${err}")
  endif()
endforeach()
