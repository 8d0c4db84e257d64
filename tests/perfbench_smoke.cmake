# Smoke run of the perfbench harness (perfbench/midas_bench.cc): a short
# traced batch_closedie run must exit 0 and report every operation correct.
# ctest's PASS_REGULAR_EXPRESSION would ignore the exit code, hence a script.
#
#   cmake -DMIDAS_BENCH=<midas_bench> -DMIDAS_CLI=<midas> -DWORKDIR=<dir> \
#         -P perfbench_smoke.cmake
execute_process(
  COMMAND "${MIDAS_BENCH}" --workload batch_closedie --seconds 0.5 --trace 1
          --midas "${MIDAS_CLI}" --workdir "${WORKDIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "midas_bench exited with ${status}\n${out}\n${err}")
endif()
if(NOT out MATCHES "\"correct\":true" OR NOT out MATCHES "\"failed\":0[,}]")
  message(FATAL_ERROR "midas_bench reported failed operations\n${out}")
endif()
message(STATUS "midas_bench smoke OK")
