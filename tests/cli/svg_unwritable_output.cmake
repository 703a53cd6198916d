# Asserts SVG writes fail loudly: pointing --svg, --gantt or
# --node-roofline at /dev/full (which opens but refuses every write) must
# exit 1 with "cannot write '/dev/full': write failed", the message every
# other artifact gives, never "wrote /dev/full".
# Usage: cmake -DWFR=<wfr-binary> -DDATA=<data-dir> -P this-file
foreach(variable WFR DATA)
  if(NOT DEFINED ${variable})
    message(FATAL_ERROR "missing -D${variable}=...")
  endif()
endforeach()

set(expected "cannot write '/dev/full': write failed")
foreach(case svg gantt node_roofline)
  if(case STREQUAL svg)
    set(command
      model --system perlmutter-gpu
      --characterization ${DATA}/characterizations/bgw_64.json
      --svg /dev/full)
  elseif(case STREQUAL gantt)
    set(command
      simulate --system perlmutter-gpu
      --workflow ${DATA}/workflows/lcls_like.json --gantt /dev/full)
  else()
    set(command
      analyze --system perlmutter-cpu
      --workflow ${DATA}/workflows/training_sweep.json
      --node-roofline /dev/full)
  endif()
  execute_process(
    COMMAND ${WFR} ${command}
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE status)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR
      "wfr ${command} exited ${status}, want 1:\n${stdout}${stderr}")
  endif()
  if(NOT stderr MATCHES "${expected}")
    message(FATAL_ERROR "wfr ${command} did not print '${expected}':\n${stderr}")
  endif()
  if(stdout MATCHES "wrote /dev/full")
    message(FATAL_ERROR "wfr ${command} claimed to write /dev/full")
  endif()
endforeach()
message(STATUS "SVG writes to /dev/full fail with '${expected}'")
