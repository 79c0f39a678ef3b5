# Runs the bench binary BIN with bad arguments: each run must exit with
# status 2, print a usage line naming the problem on stderr, and print
# nothing on stdout (no figure).
#   cmake -DBIN=build/bench/fig10_scalability_tracker -P tests/check_bench_usage.cmake
foreach(args "--adaptive" "--gran;bogus" "--threads" "--vcpus;two")
  execute_process(COMMAND ${BIN} ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${args}': exit status ${rc}, expected 2")
  endif()
  list(GET args 0 flag)
  if(NOT err MATCHES "${flag}.*; usage: .*--full")
    message(FATAL_ERROR "'${args}': no usage line naming ${flag} on stderr: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "'${args}': printed output despite the bad flag: ${out}")
  endif()
endforeach()
