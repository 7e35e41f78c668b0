# Runs one bench into a fresh HYPERTP_BENCH_DIR and compares the artifact it
# writes byte for byte with the committed baseline:
#
#   cmake -DBENCH=<binary> -DNAME=<name> -DBASELINE_DIR=<dir> -DOUT_DIR=<dir> \
#         -P bench/check_baseline.cmake
#
# Registered as the ctest label `baseline` (bench/CMakeLists.txt).

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "HYPERTP_BENCH_DIR=${OUT_DIR}" "${BENCH}"
  OUTPUT_FILE "${OUT_DIR}/stdout.txt"
  RESULT_VARIABLE run_status)
if(NOT run_status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${run_status} (stdout in ${OUT_DIR}/stdout.txt)")
endif()

set(fresh "${OUT_DIR}/BENCH_${NAME}.json")
set(committed "${BASELINE_DIR}/BENCH_${NAME}.json")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${fresh}" "${committed}"
  RESULT_VARIABLE diff_status)
if(NOT diff_status EQUAL 0)
  file(READ "${fresh}" fresh_bytes)
  file(READ "${committed}" committed_bytes)
  message(FATAL_ERROR "BENCH_${NAME}.json differs from the committed baseline\n"
                      "fresh:     ${fresh_bytes}\ncommitted: ${committed_bytes}")
endif()
