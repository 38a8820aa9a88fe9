# corpus_is_fresh: regenerates the fuzz seed corpus into a scratch
# directory and fails if any seed make_corpus writes is missing from, or
# differs from, the committed fuzz/corpus. Committed seeds the generator
# no longer writes (retired artifact formats kept as fuzz inputs) are
# listed, not failed. Invoked as:
#   cmake -DMAKE_CORPUS=<binary> -DCORPUS_DIR=<fuzz/corpus>
#         -DWORK_DIR=<dir> -P corpus_fresh.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${MAKE_CORPUS} ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "make_corpus failed (exit ${rc})")
endif()

set(stale 0)
file(GLOB_RECURSE generated RELATIVE ${WORK_DIR} ${WORK_DIR}/*)
foreach(seed IN LISTS generated)
  if(NOT EXISTS ${CORPUS_DIR}/${seed})
    message("missing from fuzz/corpus: ${seed}")
    math(EXPR stale "${stale} + 1")
    continue()
  endif()
  file(SHA256 ${WORK_DIR}/${seed} want)
  file(SHA256 ${CORPUS_DIR}/${seed} have)
  if(NOT want STREQUAL have)
    message("differs from fuzz/corpus: ${seed}")
    math(EXPR stale "${stale} + 1")
  endif()
endforeach()

file(GLOB_RECURSE committed RELATIVE ${CORPUS_DIR} ${CORPUS_DIR}/*)
foreach(seed IN LISTS committed)
  if(NOT EXISTS ${WORK_DIR}/${seed})
    message("committed, not generated (kept): ${seed}")
  endif()
endforeach()

if(stale GREATER 0)
  message(FATAL_ERROR "${stale} seed(s) are stale; regenerate with "
                      "make_corpus fuzz/corpus and commit the result")
endif()
