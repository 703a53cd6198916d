# Asserts a non-finite sweep axis value is rejected at the command line:
# strtod reads "inf" and "nan" as numbers, and such a value used to reach
# the NDJSON rows as a bare, non-JSON `inf`.  Each must exit non-zero and
# name the flag and the offending text.
# Usage: cmake -DWFR=<wfr-binary> -DDATA=<data-dir> -P this-file
foreach(variable WFR DATA)
  if(NOT DEFINED ${variable})
    message(FATAL_ERROR "missing -D${variable}=...")
  endif()
endforeach()

foreach(param fs_gbs=inf nic_gbs=1,nan)
  string(REGEX MATCH "^[a-z_]+" axis "${param}")
  string(REGEX MATCH "[a-z]+$" value "${param}")
  execute_process(
    COMMAND ${WFR} sweep --system ${DATA}/systems/demo_cluster.json
      --characterization ${DATA}/characterizations/bgw_64.json
      --param ${param} --stream
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE status)
  if(status EQUAL 0)
    message(FATAL_ERROR "--param ${param} unexpectedly exited 0:\n${stdout}")
  endif()
  if(NOT stderr MATCHES "bad value for --param ${axis}: '${value}'")
    message(FATAL_ERROR "--param ${param} did not name the value:\n${stderr}")
  endif()
endforeach()
message(STATUS "wfr sweep non-finite --param values rejected")
