# ctest helper: runs the debuglet CLI at DEBUGLET with the flags in ARGS (a
# space-separated string) and passes only when it exits 2 and prints
# MESSAGE on standard error.
#
#   cmake -DDEBUGLET=build/tools/debuglet "-DARGS=measure --probes abc" \
#         "-DMESSAGE=error: --probes: expected an integer, got 'abc'" \
#         -P tools/expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DEBUGLET}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "debuglet ${ARGS}: expected exit 2, got ${rc}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "debuglet ${ARGS}: stderr lacks '${MESSAGE}':\n${err}")
endif()
