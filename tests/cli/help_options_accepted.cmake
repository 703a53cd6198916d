# Asserts that `wfr help` lists each command's options as the command
# reads them.  For every "--<opt> <value>" help lists under a command,
# `wfr <command> --<opt>` (no value) must exit 1 with "--<opt> needs a
# value"; for every listed flag, `wfr <command> --<flag> --<flag>` must
# exit 1 with "--<flag> given twice".  Neither may be refused as an
# unknown option, and both fail before the command runs, so no server
# starts and no file is written.  The test hook --abort-after-rows must
# not appear in help.
# Usage: cmake -DWFR=<wfr-binary> -P this-file
if(NOT DEFINED WFR)
  message(FATAL_ERROR "missing -DWFR=...")
endif()

execute_process(COMMAND ${WFR} help
  OUTPUT_VARIABLE help RESULT_VARIABLE status ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "wfr help exited ${status}")
endif()
if(help MATCHES "abort-after-rows")
  message(FATAL_ERROR "wfr help lists the test hook --abort-after-rows")
endif()

string(REGEX MATCHALL "\n  wfr [a-z]+" commands "${help}")
set(checked 0)
foreach(command IN LISTS commands)
  string(REGEX REPLACE "\n  wfr " "" command "${command}")
  # The command's usage line and its continuation lines, with the
  # brackets and parentheses blanked so every word is a list element.
  string(REGEX MATCH "\n  wfr ${command}( [^\n]*)?(\n   +[^\n]*)*" usage
         "${help}")
  string(REGEX REPLACE "[][()\n]" " " usage "${usage}")
  string(REGEX MATCHALL "[^ ]+" words "${usage}")
  list(LENGTH words count)
  if(count LESS 3)
    continue()
  endif()
  math(EXPR last "${count} - 1")
  foreach(i RANGE 2 ${last})
    list(GET words ${i} word)
    if(NOT word MATCHES "^--[a-z-]+$")
      continue()
    endif()
    set(value "")
    if(i LESS last)
      math(EXPR next "${i} + 1")
      list(GET words ${next} value)
    endif()
    if(value STREQUAL "" OR value MATCHES "^[-|]")
      set(line ${command} ${word} ${word})
      set(expected "${word} given twice")
    else()
      set(line ${command} ${word})
      set(expected "${word} needs a value")
    endif()
    execute_process(COMMAND ${WFR} ${line}
      OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE status)
    if(NOT status EQUAL 1 OR NOT stderr MATCHES "${expected}" OR
       NOT stdout STREQUAL "")
      list(JOIN line " " line)
      message(FATAL_ERROR "wfr ${line} exited ${status}, want 1 with "
        "'${expected}':\n${stdout}${stderr}")
    endif()
    math(EXPR checked "${checked} + 1")
  endforeach()
endforeach()
if(checked EQUAL 0)
  message(FATAL_ERROR "wfr help listed no option:\n${help}")
endif()
message(STATUS "wfr help: all ${checked} listed options are read")
