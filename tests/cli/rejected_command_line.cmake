# Asserts that wfr rejects a command line it cannot honour: exit status
# 1, a message naming the problem, nothing on stdout, and no output file
# written, in OUT_DIR or in the working directory, which is OUT_DIR.
#   sweep_unknown_option_fails         the removed --shard-mode on a
#                                      sharded streaming sweep
#   model_unknown_option_fails         sweep's --stream passed to wfr model
#   sweep_reorder_window_needs_stream  --reorder-window without --stream
#   model_stray_word_fails             a word after the value-less --ascii
#   archetype_random_nodes_fails       --nodes, which random_dag never reads
#   archetype_seed_fails               --seed on a kind that is not seeded
#   sweep_ndjson_dash_fails            --ndjson - (the rows already go to
#                                      stdout) on the batch, --stream and
#                                      --shard-id paths
#   sweep_spawn_removed                the removed --spawn on a sharded
#                                      streaming sweep
#   merge_needs_rows                   wfr merge without --rows
#   sweep_checkpoint_needs_stream      --checkpoint without --stream
#   model_svg_missing_value_fails      --svg last on the line, no file name
#   sweep_ndjson_missing_value_fails   --ndjson with no file name: last on
#                                      the batch line, followed by --stream
#                                      and by the --shard-id path's options
#   stream_checkpoint_missing_value_fails
#                                      --checkpoint last on a streaming
#                                      sweep that writes --ndjson
#   sweep_repeated_option_fails        --ndjson given twice
# Usage: cmake -DWFR=<wfr-binary> -DDATA=<data-dir> -DOUT_DIR=<dir>
#              -DCASE=<one of the cases above> -P this-file
foreach(variable WFR DATA OUT_DIR CASE)
  if(NOT DEFINED ${variable})
    message(FATAL_ERROR "missing -D${variable}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
set(characterization ${DATA}/characterizations/bgw_64.json)
# Each variant runs the case's command with extra arguments.
set(variants plain)
if(CASE STREQUAL sweep_unknown_option_fails)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --stream --shards 2 --shard-id 0
    --shard-mode block
    --ndjson ${OUT_DIR}/out.ndjson --checkpoint ${OUT_DIR}/ckpt.json)
  set(expected "unknown option --shard-mode for wfr sweep")
elseif(CASE STREQUAL model_unknown_option_fails)
  set(command
    model --system perlmutter-gpu --characterization ${characterization}
    --svg ${OUT_DIR}/model.svg --stream)
  set(expected "unknown option --stream for wfr model")
elseif(CASE STREQUAL sweep_reorder_window_needs_stream)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --reorder-window 5
    --ndjson ${OUT_DIR}/out.ndjson)
  set(expected "--reorder-window needs --stream")
elseif(CASE STREQUAL model_stray_word_fails)
  set(command
    model --system perlmutter-gpu --characterization ${characterization}
    --svg ${OUT_DIR}/model.svg --ascii stray-word)
  set(expected "unexpected argument 'stray-word'")
elseif(CASE STREQUAL archetype_random_nodes_fails)
  set(command archetype --kind random --size 6 --seed 1 --nodes 3)
  set(expected "unknown option --nodes for wfr archetype --kind random")
elseif(CASE STREQUAL archetype_seed_fails)
  set(command archetype --kind fork-join --size 4 --seed 7)
  set(expected "unknown option --seed for wfr archetype --kind fork-join")
elseif(CASE STREQUAL sweep_ndjson_dash_fails)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --ndjson -)
  set(expected "--ndjson - is not an output file")
  set(variants plain stream shard)
elseif(CASE STREQUAL sweep_spawn_removed)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --stream --shards 2 --spawn
    --ndjson ${OUT_DIR}/out.ndjson)
  set(expected "unknown option --spawn for wfr sweep")
elseif(CASE STREQUAL merge_needs_rows)
  set(command merge a b)
  set(expected "missing required option --rows")
elseif(CASE STREQUAL sweep_checkpoint_needs_stream)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --checkpoint ${OUT_DIR}/ckpt.json)
  set(expected "--checkpoint needs --stream")
elseif(CASE STREQUAL model_svg_missing_value_fails)
  set(command
    model --system perlmutter-gpu --characterization ${characterization}
    --svg)
  set(expected "--svg needs a value")
elseif(CASE STREQUAL sweep_ndjson_missing_value_fails)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --ndjson)
  set(expected "--ndjson needs a value")
  set(variants plain stream shard)
elseif(CASE STREQUAL stream_checkpoint_missing_value_fails)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --stream --ndjson ${OUT_DIR}/out.ndjson
    --checkpoint)
  set(expected "--checkpoint needs a value")
elseif(CASE STREQUAL sweep_repeated_option_fails)
  set(command
    sweep --system perlmutter-gpu --characterization ${characterization}
    --param nodes_per_task=1,2 --ndjson ${OUT_DIR}/a.ndjson
    --ndjson ${OUT_DIR}/b.ndjson)
  set(expected "--ndjson given twice")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()

foreach(variant IN LISTS variants)
  set(extra)
  if(variant STREQUAL stream)
    set(extra --stream)
  elseif(variant STREQUAL shard)
    set(extra --stream --shards 2 --shard-id 0)
  endif()
  execute_process(
    COMMAND ${WFR} ${command} ${extra}
    WORKING_DIRECTORY ${OUT_DIR}
    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE status)
  set(run "${CASE} (${variant})")
  if(NOT status EQUAL 1)
    message(FATAL_ERROR
      "wfr ${run} exited ${status}, want 1:\n${stdout}${stderr}")
  endif()
  if(NOT stderr MATCHES "${expected}")
    message(FATAL_ERROR "wfr ${run} did not print '${expected}':\n${stderr}")
  endif()
  if(NOT stdout STREQUAL "")
    message(FATAL_ERROR "wfr ${run} printed before failing:\n${stdout}")
  endif()
  file(GLOB written ${OUT_DIR}/*)
  if(written)
    message(FATAL_ERROR "wfr ${run} wrote ${written} before failing")
  endif()
endforeach()
message(STATUS "wfr ${CASE}: ${expected}")
