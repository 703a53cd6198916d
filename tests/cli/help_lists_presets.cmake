# Asserts that `wfr help` names every preset `wfr presets` lists, on its
# "presets:" line, so the usage text cannot fall behind the preset table.
# Usage: cmake -DWFR=<wfr-binary> -P this-file
if(NOT DEFINED WFR)
  message(FATAL_ERROR "missing -DWFR=...")
endif()

foreach(command presets help)
  execute_process(COMMAND ${WFR} ${command}
    OUTPUT_VARIABLE output_${command}
    RESULT_VARIABLE status
    ERROR_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "wfr ${command} exited ${status}")
  endif()
endforeach()

string(REGEX MATCH "\npresets:[^\n]*" presets_line "${output_help}")
if(presets_line STREQUAL "")
  message(FATAL_ERROR "wfr help has no 'presets:' line")
endif()

string(REGEX MATCHALL "(^|\n)[^ \n]+" names "${output_presets}")
list(LENGTH names count)
if(count EQUAL 0)
  message(FATAL_ERROR "wfr presets listed no preset")
endif()
# Each name must appear whole: " <name>," against the line plus a comma.
foreach(name IN LISTS names)
  string(STRIP "${name}" name)
  string(FIND "${presets_line}," " ${name}," at)
  if(at EQUAL -1)
    message(FATAL_ERROR "wfr help does not list preset '${name}':${presets_line}")
  endif()
endforeach()
message(STATUS "wfr help lists all ${count} presets")
