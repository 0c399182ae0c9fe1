# Timeout audit: every test registered with ctest must carry an explicit TIMEOUT
# property, so a hung run fails fast instead of stalling CI until the runner's
# job limit. Run as a ctest test itself (see tests/CMakeLists.txt); it asks ctest
# for the full test list as JSON and fails naming every test without a timeout.
#
# Invoked as:
#   cmake -DCTEST_EXECUTABLE=<ctest> -DBUILD_DIR=<build dir> -P check_test_timeouts.cmake

if(CMAKE_VERSION VERSION_LESS 3.19)
  # string(JSON) appeared in 3.19; older cmake can build the project (3.16 floor)
  # but cannot run this audit. Skipping is safe: CI pins a modern cmake.
  message(STATUS "cmake ${CMAKE_VERSION} lacks string(JSON); skipping timeout audit")
  return()
endif()

execute_process(
  COMMAND "${CTEST_EXECUTABLE}" --show-only=json-v1
  WORKING_DIRECTORY "${BUILD_DIR}"
  OUTPUT_VARIABLE listing
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ctest --show-only=json-v1 failed (rc=${rc})")
endif()

# Every string(JSON) call parses its whole input, so the per-property queries read
# each test's own small object, not the 400 KB listing.
string(JSON tests GET "${listing}" tests)
string(JSON num_tests LENGTH "${tests}")
if(num_tests EQUAL 0)
  message(FATAL_ERROR "ctest reported zero tests; audit ran in the wrong directory?")
endif()

set(missing "")
math(EXPR last "${num_tests} - 1")
foreach(i RANGE ${last})
  string(JSON test GET "${tests}" ${i})
  string(JSON name GET "${test}" name)
  set(has_timeout FALSE)
  string(JSON num_props ERROR_VARIABLE props_error LENGTH "${test}" properties)
  if(NOT props_error AND num_props GREATER 0)
    math(EXPR props_last "${num_props} - 1")
    foreach(p RANGE ${props_last})
      string(JSON prop_name GET "${test}" properties ${p} name)
      if(prop_name STREQUAL "TIMEOUT")
        string(JSON prop_value GET "${test}" properties ${p} value)
        if(prop_value GREATER 0)
          set(has_timeout TRUE)
        endif()
      endif()
    endforeach()
  endif()
  if(NOT has_timeout)
    list(APPEND missing "${name}")
  endif()
endforeach()

if(missing)
  list(LENGTH missing num_missing)
  list(JOIN missing "\n  " joined)
  message(FATAL_ERROR
    "${num_missing} test(s) registered without an explicit TIMEOUT property:\n"
    "  ${joined}\n"
    "Add TIMEOUT via set_tests_properties (or register through ace_test).")
endif()

message(STATUS "timeout audit: all ${num_tests} tests carry an explicit TIMEOUT")
