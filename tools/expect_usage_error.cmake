# ctest helper: runs the debuglet CLI (or another tool, such as
# tools/behaviour_diff.sh) at DEBUGLET with the flags in ARGS (a
# space-separated string) and passes only when it exits EXIT_CODE (2 when
# unset) and prints every string of the list MESSAGE: on standard error,
# or on standard output when EXIT_CODE is 0.
#
#   cmake -DDEBUGLET=build/tools/debuglet "-DARGS=measure --probes abc" \
#         "-DMESSAGE=error: --probes: expected an integer, got 'abc'" \
#         -P tools/expect_usage_error.cmake
if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 2)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DEBUGLET}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL EXIT_CODE)
  message(FATAL_ERROR "debuglet ${ARGS}: expected exit ${EXIT_CODE}, got ${rc}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
set(stream "${err}")
if(EXIT_CODE EQUAL 0)
  set(stream "${out}")
endif()
foreach(expected IN LISTS MESSAGE)
  string(FIND "${stream}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "debuglet ${ARGS}: output lacks '${expected}':\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
endforeach()
