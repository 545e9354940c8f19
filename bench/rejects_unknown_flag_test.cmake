# A bench that takes no flags must reject an unknown one: nonzero exit and
# the usage page on stderr, not a silent run that ignores its argv.
#
# Invoked as:
#   cmake -DBENCH=<exe> -P rejects_unknown_flag_test.cmake

if(NOT DEFINED BENCH)
  message(FATAL_ERROR "rejects_unknown_flag_test: missing -DBENCH=")
endif()

execute_process(
  COMMAND ${BENCH} --bogus
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text
  RESULT_VARIABLE rc
  TIMEOUT 20
)
if(rc EQUAL 0 OR NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR
          "rejects_unknown_flag_test: ${BENCH} --bogus exited '${rc}', "
          "expected a nonzero exit code")
endif()
if(NOT stderr_text MATCHES "unknown flag --bogus" OR
   NOT stderr_text MATCHES "Flags:")
  message(FATAL_ERROR
          "rejects_unknown_flag_test: ${BENCH} --bogus printed no usage "
          "page on stderr:\n${stderr_text}")
endif()
