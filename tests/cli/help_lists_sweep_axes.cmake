# Asserts that every axis `wfr help` names on its "sweep axes:" line is
# one `wfr sweep --param` accepts, so the usage text cannot fall behind
# the axes SweepGrid reads.  A name outside the list must still fail
# with "unknown sweep axis", so the probe can tell the two apart.
# Usage: cmake -DWFR=<wfr-binary> -DDATA=<data-dir> -P this-file
foreach(variable WFR DATA)
  if(NOT DEFINED ${variable})
    message(FATAL_ERROR "missing -D${variable}=...")
  endif()
endforeach()

execute_process(COMMAND ${WFR} help
  OUTPUT_VARIABLE help RESULT_VARIABLE status ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "wfr help exited ${status}")
endif()

# The line and its indented continuation lines.
string(REGEX MATCH "\nsweep axes:[^\n]*(\n +[^\n]*)*" axes_text "${help}")
if(axes_text STREQUAL "")
  message(FATAL_ERROR "wfr help has no 'sweep axes:' line")
endif()
string(REPLACE "sweep axes:" "" axes_text "${axes_text}")
string(REGEX MATCHALL "[^ ,\n]+" axes "${axes_text}")
list(LENGTH axes count)
if(count EQUAL 0)
  message(FATAL_ERROR "wfr help names no sweep axis:${axes_text}")
endif()

# sweep_stderr(<axis> <out-var>): what `wfr sweep --param <axis>=1` prints
# on stderr.
function(sweep_stderr axis out)
  execute_process(COMMAND ${WFR} sweep --system perlmutter-gpu
    --characterization ${DATA}/characterizations/bgw_64.json
    --param ${axis}=1
    OUTPUT_QUIET ERROR_VARIABLE stderr)
  set(${out} "${stderr}" PARENT_SCOPE)
endfunction()

sweep_stderr(not_an_axis stderr)
if(NOT stderr MATCHES "unknown sweep axis 'not_an_axis'")
  message(FATAL_ERROR "wfr sweep --param not_an_axis=1 did not fail as an "
    "unknown axis:\n${stderr}")
endif()
foreach(axis IN LISTS axes)
  sweep_stderr(${axis} stderr)
  if(stderr MATCHES "unknown sweep axis")
    message(FATAL_ERROR "wfr help lists sweep axis '${axis}', which "
      "wfr sweep rejects:\n${stderr}")
  endif()
endforeach()
message(STATUS "wfr sweep accepts all ${count} axes wfr help lists")
