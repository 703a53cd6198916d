# Asserts that wfr rejects an option its subcommand does not read: exit
# status 1, a message naming the option and the command, and no output
# file written.  CASE=sweep passes the removed --shard-mode to a sharded
# streaming sweep; CASE=model passes sweep's --stream to wfr model.
# Usage: cmake -DWFR=<wfr-binary> -DDATA=<data-dir> -DOUT_DIR=<dir>
#              -DCASE=sweep|model -P this-file
foreach(variable WFR DATA OUT_DIR CASE)
  if(NOT DEFINED ${variable})
    message(FATAL_ERROR "missing -D${variable}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
set(characterization ${DATA}/characterizations/bgw_64.json)
if(CASE STREQUAL sweep)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --stream --shards 2 --shard-id 0
    --shard-mode block
    --ndjson ${OUT_DIR}/out.ndjson --checkpoint ${OUT_DIR}/ckpt.json)
  set(expected "unknown option --shard-mode for wfr sweep")
elseif(CASE STREQUAL model)
  set(command
    model --system perlmutter-gpu --characterization ${characterization}
    --svg ${OUT_DIR}/model.svg --stream)
  set(expected "unknown option --stream for wfr model")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

execute_process(
  COMMAND ${WFR} ${command}
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE status)
if(NOT status EQUAL 1)
  message(FATAL_ERROR
    "wfr ${CASE} exited ${status}, want 1:\n${stdout}${stderr}")
endif()
if(NOT stderr MATCHES "${expected}")
  message(FATAL_ERROR "wfr ${CASE} did not print '${expected}':\n${stderr}")
endif()
file(GLOB written ${OUT_DIR}/*)
if(written)
  message(FATAL_ERROR "wfr ${CASE} wrote ${written} before failing")
endif()
message(STATUS "wfr ${CASE}: ${expected}")
