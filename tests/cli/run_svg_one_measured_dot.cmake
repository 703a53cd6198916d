# Asserts `wfr run --svg` draws the measured operating point once: the
# roofline model already carries its measured dot, so the SVG holds
# exactly one "measured" label.
# Usage: cmake -DWFR=<wfr-binary> -DDATA=<data-dir> -DOUT_DIR=<scratch> -P this-file
foreach(variable WFR DATA OUT_DIR)
  if(NOT DEFINED ${variable})
    message(FATAL_ERROR "missing -D${variable}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY ${OUT_DIR})

set(svg ${OUT_DIR}/run.svg)
execute_process(
  COMMAND ${WFR} run --system perlmutter-gpu
    --workflow ${DATA}/workflows/lcls_like.json --svg ${svg}
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "wfr run --svg exited ${status}:\n${stderr}")
endif()
file(READ ${svg} text)
string(REGEX MATCHALL ">measured</text>" labels "${text}")
list(LENGTH labels count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR
    "wfr run --svg drew ${count} measured labels, expected exactly 1")
endif()
message(STATUS "wfr run --svg drew one measured dot")
