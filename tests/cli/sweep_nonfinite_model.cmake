# Asserts a grid point whose rate overflows a channel's seconds per task
# fails in both sweep modes with the same message, instead of reaching the
# NDJSON rows as a bare, non-JSON `inf`.  A one-point grid and a grid
# whose middle row fails each run without and with --stream; every run
# must exit non-zero and print the same line naming the failing row.
# Usage: cmake -DWFR=<wfr-binary> -DDATA=<data-dir> -P this-file
foreach(variable WFR DATA)
  if(NOT DEFINED ${variable})
    message(FATAL_ERROR "missing -D${variable}=...")
  endif()
endforeach()

set(cases
  "peak_flops=1e-300|sweep row 0 [(]peak_flops=1e-300[)]: workflow 'bgw-64' needs inf s per task of flops on system 'demo-cluster'"
  "fs_gbs=1e9,1e-300,2e9|sweep row 1 [(]fs_gbs=1e-300[)]: workflow 'bgw-64' needs inf s per task of filesystem on system 'demo-cluster'")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 param)
  list(GET parts 1 expected)
  set(first_stderr "")
  foreach(mode batch stream)
    set(extra "")
    if(mode STREQUAL "stream")
      set(extra --stream)
    endif()
    execute_process(
      COMMAND ${WFR} sweep --system ${DATA}/systems/demo_cluster.json
        --characterization ${DATA}/characterizations/bgw_64.json
        --param ${param} ${extra}
      OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE status)
    if(status EQUAL 0)
      message(FATAL_ERROR
        "--param ${param} (${mode}) unexpectedly exited 0:\n${stdout}")
    endif()
    if(stdout MATCHES ":inf")
      message(FATAL_ERROR "--param ${param} (${mode}) printed inf:\n${stdout}")
    endif()
    if(NOT stderr MATCHES "${expected}")
      message(FATAL_ERROR
        "--param ${param} (${mode}) did not name the row:\n${stderr}")
    endif()
    if(mode STREQUAL "batch")
      set(first_stderr "${stderr}")
    elseif(NOT stderr STREQUAL first_stderr)
      message(FATAL_ERROR "--param ${param}: the two modes disagree:\n"
        "batch:  ${first_stderr}stream: ${stderr}")
    endif()
  endforeach()
endforeach()
message(STATUS "wfr sweep non-finite model outputs rejected in both modes")
