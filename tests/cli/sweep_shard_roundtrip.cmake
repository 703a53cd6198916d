# Asserts the sharded sweep's data contract end to end: three
# --shard-id workers merged by `wfr merge --rows 16` equal the
# single-process --stream output byte for byte, also when one worker was
# aborted mid-run and resumed from its per-shard checkpoint; a worker
# writes exactly its stride slice and prints the grid's total in its
# summary line; `wfr merge` exits 1 naming the part when --rows does not
# match the parts, when a part lost its final line, or when a part is
# missing; and --shards without --shard-id is rejected loudly.
# The grid binds on compute in 12 rows and on the filesystem in 4.
# Usage: cmake -DWFR=<wfr-binary> -DDATA=<data-dir> -DOUT_DIR=<scratch> -P this-file
foreach(variable WFR DATA OUT_DIR)
  if(NOT DEFINED ${variable})
    message(FATAL_ERROR "missing -D${variable}=...")
  endif()
endforeach()
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

set(common
  sweep --system perlmutter-gpu
  --characterization ${DATA}/characterizations/bgw_64.json
  --param nodes_per_task=0.5,1,2,4 --param fs_gbs=1e9,2e9,5e9,700e9 --stream)

# The reference: one process, one stream.
execute_process(
  COMMAND ${WFR} ${common} --jobs 2 --ndjson ${OUT_DIR}/single.ndjson
  OUTPUT_QUIET RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "single-process sweep failed with ${status}")
endif()
file(READ ${OUT_DIR}/single.ndjson single)

# Three workers, one per shard.  Each prints the grid's total (the value
# `wfr merge --rows` takes) in its summary line.
set(parts)
foreach(shard 0 1 2)
  execute_process(
    COMMAND ${WFR} ${common} --jobs 1 --shards 3 --shard-id ${shard}
      --ndjson ${OUT_DIR}/part${shard}.ndjson
    OUTPUT_VARIABLE log RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "--shard-id ${shard} worker failed with ${status}")
  endif()
  if(NOT log MATCHES "sweep shard ${shard}/3 of '[^']*' on 'perlmutter-gpu': [56] of 16 points")
    message(FATAL_ERROR "--shard-id ${shard} summary line missing:\n${log}")
  endif()
  list(APPEND parts ${OUT_DIR}/part${shard}.ndjson)
endforeach()

# merge <name> <rows> <parts...>: runs wfr merge, leaving its exit status
# in merge_status, its stdout in ${name}.ndjson and its stderr in
# merge_error.
function(merge name rows)
  execute_process(
    COMMAND ${WFR} merge --rows ${rows} ${ARGN}
    OUTPUT_FILE ${OUT_DIR}/${name}.ndjson
    ERROR_VARIABLE error RESULT_VARIABLE status)
  set(merge_status ${status} PARENT_SCOPE)
  set(merge_error "${error}" PARENT_SCOPE)
endfunction()

function(expect_same name)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${OUT_DIR}/single.ndjson ${OUT_DIR}/${name}.ndjson
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${name}: merged NDJSON differs from the"
      " single-process stream")
  endif()
endfunction()

merge(merged 16 ${parts})
if(NOT merge_status EQUAL 0)
  message(FATAL_ERROR "wfr merge failed with ${merge_status}:\n${merge_error}")
endif()
expect_same(merged)

# Manual shard ownership: worker 1 of 3 (stride) owns global rows
# g % 3 == 1 of the 16-point grid — exactly every third line of the
# reference, starting at the second.
file(STRINGS ${OUT_DIR}/single.ndjson reference_lines)
file(STRINGS ${OUT_DIR}/part1.ndjson shard_lines)
set(expected_lines)
set(row 0)
foreach(line IN LISTS reference_lines)
  math(EXPR owner "${row} % 3")
  if(owner EQUAL 1)
    list(APPEND expected_lines "${line}")
  endif()
  math(EXPR row "${row} + 1")
endforeach()
if(NOT "${shard_lines}" STREQUAL "${expected_lines}")
  message(FATAL_ERROR "--shard-id 1 did not emit exactly its stride slice")
endif()

# A sharded resume: shard 1 stops after 2 of its 5 rows, checkpointing
# every row, then resumes from its per-shard checkpoint.  The merge of
# the resumed part must still equal the single stream.
set(resumed ${OUT_DIR}/resumed1.ndjson)
set(checkpoint ${OUT_DIR}/ckpt1.json)
execute_process(
  COMMAND ${WFR} ${common} --jobs 2 --shards 3 --shard-id 1
    --ndjson ${resumed} --checkpoint ${checkpoint} --checkpoint-every 1
    --abort-after-rows 2
  OUTPUT_QUIET ERROR_VARIABLE aborted RESULT_VARIABLE status)
if(status EQUAL 0 OR NOT aborted MATCHES "sweep aborted after 2 rows")
  message(FATAL_ERROR "aborted shard run did not stop after 2 rows"
    " (${status}):\n${aborted}")
endif()
file(STRINGS ${resumed} partial)
list(LENGTH partial partial_rows)
if(NOT partial_rows EQUAL 2)
  message(FATAL_ERROR "aborted shard left ${partial_rows} rows, want 2")
endif()
execute_process(
  COMMAND ${WFR} ${common} --jobs 2 --shards 3 --shard-id 1
    --ndjson ${resumed} --resume ${checkpoint}
  OUTPUT_VARIABLE log RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "resumed shard failed with ${status}")
endif()
if(NOT log MATCHES "5 of 16 points, 3 emitted")
  message(FATAL_ERROR "resumed shard did not emit its last 3 rows:\n${log}")
endif()
merge(resumed_merge 16 ${OUT_DIR}/part0.ndjson ${resumed}
  ${OUT_DIR}/part2.ndjson)
if(NOT merge_status EQUAL 0)
  message(FATAL_ERROR "merge after a resume failed with ${merge_status}:"
    "\n${merge_error}")
endif()
expect_same(resumed_merge)

# expect_merge_fails <name> <pattern>: the last merge exited 1 with an
# error that matches <pattern>.
function(expect_merge_fails name pattern)
  if(NOT merge_status EQUAL 1)
    message(FATAL_ERROR "${name}: wfr merge exited ${merge_status}, want 1")
  endif()
  if(NOT merge_error MATCHES "${pattern}")
    message(FATAL_ERROR "${name}: wfr merge did not report '${pattern}':"
      "\n${merge_error}")
  endif()
endfunction()

# One row too many: global row 16 belongs to shard 1, whose part is short.
merge(rows17 17 ${parts})
expect_merge_fails(rows17
  "shard part '[^']*part1\\.ndjson': unexpected end of file at global row 16")

# One row too few: shard 0's part holds row 15, past the merged rows.
merge(rows15 15 ${parts})
expect_merge_fails(rows15
  "shard part '[^']*part0\\.ndjson': trailing data past this shard's last row")

# Shard 0 owns the grid's last row.  A copy of its part without its final
# line holds 15 rows in all with the other two, so only the grid's
# --rows 16 can tell that it is short.  The rows before the lost one are
# printed, as a failing sweep prints the rows before the failing one.
function(drop_last_line var text)
  string(LENGTH "${text}" length)
  math(EXPR length "${length} - 1")
  string(SUBSTRING "${text}" 0 ${length} text)
  string(FIND "${text}" "\n" last_newline REVERSE)
  math(EXPR length "${last_newline} + 1")
  string(SUBSTRING "${text}" 0 ${length} text)
  set(${var} "${text}" PARENT_SCOPE)
endfunction()
file(READ ${OUT_DIR}/part0.ndjson part0)
drop_last_line(short0 "${part0}")
file(WRITE ${OUT_DIR}/short0.ndjson "${short0}")
merge(short 16 ${OUT_DIR}/short0.ndjson ${OUT_DIR}/part1.ndjson
  ${OUT_DIR}/part2.ndjson)
expect_merge_fails(short
  "shard part '[^']*short0\\.ndjson': unexpected end of file at global row 15")
drop_last_line(first15 "${single}")
file(READ ${OUT_DIR}/short.ndjson printed)
if(NOT printed STREQUAL first15)
  message(FATAL_ERROR "short: wfr merge did not print the 15 rows before"
    " the lost one:\n${printed}")
endif()

# A missing part is named before anything is printed.
merge(missing 16 ${OUT_DIR}/part0.ndjson ${OUT_DIR}/no-such-part.ndjson
  ${OUT_DIR}/part2.ndjson)
expect_merge_fails(missing
  "shard part '[^']*no-such-part\\.ndjson': cannot open")
file(READ ${OUT_DIR}/missing.ndjson printed)
if(NOT printed STREQUAL "")
  message(FATAL_ERROR "missing: wfr merge printed before failing:\n${printed}")
endif()

# --shards needs an owner: an explicit --shard-id.
execute_process(
  COMMAND ${WFR} ${common} --shards 3 --ndjson ${OUT_DIR}/unowned.ndjson
  OUTPUT_QUIET ERROR_VARIABLE unowned RESULT_VARIABLE status)
if(status EQUAL 0)
  message(FATAL_ERROR "--shards without --shard-id unexpectedly passed")
endif()
if(NOT unowned MATCHES "--shards needs --shard-id")
  message(FATAL_ERROR "missing-owner rejection not reported:\n${unowned}")
endif()
message(STATUS "wfr sweep sharded workers and wfr merge round-trip verified")
