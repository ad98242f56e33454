# Run TEST_EXE with PSCA_CACHE_DIR set to CACHE_DIR, emptied first.
file(REMOVE_RECURSE ${CACHE_DIR})
file(MAKE_DIRECTORY ${CACHE_DIR})
set(ENV{PSCA_CACHE_DIR} ${CACHE_DIR})
execute_process(COMMAND ${TEST_EXE} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${TEST_EXE}: ${status}")
endif()
