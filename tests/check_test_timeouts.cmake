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

# Every string(JSON) call parses its whole input, so indexing the tests array once
# per test would re-parse the whole listing each time. Instead split the array text
# once, at its top-level element boundaries, and query each test's own small object.
string(JSON tests GET "${listing}" tests)
string(JSON num_tests LENGTH "${tests}")
if(num_tests EQUAL 0)
  message(FATAL_ERROR "ctest reported zero tests; audit ran in the wrong directory?")
endif()

# The array is serialized one member per line: each top-level element opens with
# "{" and closes with "}" at the same indent, and deeper lines indent further.
string(REGEX MATCH "^\\[\n([ \t]*){" lead "${tests}")
if(NOT lead)
  message(FATAL_ERROR "unexpected ctest JSON layout: cannot find the first test object")
endif()
set(indent "${CMAKE_MATCH_1}")
string(FIND "${tests}" "{" first)
string(FIND "${tests}" "}" last REVERSE)
math(EXPR span "${last} - ${first} + 1")
string(SUBSTRING "${tests}" ${first} ${span} body)
# ';' separates CMake list elements and '[' ']' suppress separation inside them, so
# swap all three for control characters (JSON text escapes those in strings, so they
# cannot occur) before turning each top-level boundary into a list separator.
string(ASCII 1 esc_semi)
string(ASCII 2 esc_open)
string(ASCII 3 esc_close)
string(REPLACE ";" "${esc_semi}" body "${body}")
string(REPLACE "[" "${esc_open}" body "${body}")
string(REPLACE "]" "${esc_close}" body "${body}")
string(REPLACE "\n${indent}},\n${indent}{" "\n${indent}};{" body "${body}")

set(missing "")
set(seen 0)
foreach(test IN LISTS body)
  math(EXPR seen "${seen} + 1")
  string(REPLACE "${esc_semi}" ";" test "${test}")
  string(REPLACE "${esc_open}" "[" test "${test}")
  string(REPLACE "${esc_close}" "]" test "${test}")
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
# Fail closed: a split that missed or invented a boundary would audit the wrong set.
if(NOT seen EQUAL num_tests)
  message(FATAL_ERROR
    "timeout audit split the test list into ${seen} objects, but ctest lists "
    "${num_tests} tests; the ctest JSON layout changed")
endif()

if(missing)
  list(LENGTH missing num_missing)
  list(JOIN missing "\n  " joined)
  message(FATAL_ERROR
    "${num_missing} test(s) registered without an explicit TIMEOUT property:\n"
    "  ${joined}\n"
    "Add TIMEOUT via set_tests_properties (or register through ace_test).")
endif()

message(STATUS "timeout audit: all ${num_tests} tests carry an explicit TIMEOUT")
