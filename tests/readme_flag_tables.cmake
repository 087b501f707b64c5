# README flag-table freshness check, run as a ctest entry: README.md must
# contain, verbatim, the markdown flag table each binary generates from its
# flag registry with --flag-table. A flag added, removed, or re-documented
# without regenerating the README fails here.
#
# Expects: -DSPFAIL_SCAN=<spfail_scan> -DSPFAIL_SVC=<spfail_svc>
#          -DREADME=<path to README.md>
if(NOT SPFAIL_SCAN OR NOT SPFAIL_SVC OR NOT README)
  message(FATAL_ERROR "usage: cmake -DSPFAIL_SCAN=... -DSPFAIL_SVC=... -DREADME=... -P readme_flag_tables.cmake")
endif()

file(READ "${README}" readme)
foreach(binary IN ITEMS "${SPFAIL_SCAN}" "${SPFAIL_SVC}")
  execute_process(
    COMMAND "${binary}" --flag-table
    OUTPUT_VARIABLE table
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${binary} --flag-table failed (exit ${rc})")
  endif()
  string(FIND "${readme}" "${table}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "README.md does not contain the current output of "
      "`${binary} --flag-table`; regenerate the README's flag table:\n${table}")
  endif()
endforeach()
