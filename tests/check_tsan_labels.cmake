# Checks that every test carrying one of LABELS (comma-separated) also
# carries tsan-core.
#
#   cmake -DCTEST=<ctest> -DBUILD_DIR=<build> -DLABELS=simd,stream \
#         -P tests/check_tsan_labels.cmake
#
# Each label must select at least one test, so a label that silently stops
# landing (as a LABELS list passed through gtest_discover_tests once did)
# fails the check instead of passing it vacuously.

function(tests_with_label label out)
  execute_process(COMMAND ${CTEST} -N -L "^${label}$"
    WORKING_DIRECTORY ${BUILD_DIR}
    OUTPUT_VARIABLE text RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ctest -N -L ${label} failed (${rc})")
  endif()
  string(REGEX MATCHALL "Test +#[0-9]+: [^\n]+" lines "${text}")
  set(names "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^Test +#[0-9]+: " "" name "${line}")
    list(APPEND names "${name}")
  endforeach()
  set(${out} "${names}" PARENT_SCOPE)
endfunction()

string(REPLACE "," ";" LABELS "${LABELS}")
tests_with_label(tsan-core sanitized)
set(failures 0)
foreach(label IN LISTS LABELS)
  tests_with_label(${label} selected)
  list(LENGTH selected count)
  if(count EQUAL 0)
    message(SEND_ERROR "no test carries the label '${label}'")
    math(EXPR failures "${failures} + 1")
  endif()
  foreach(name IN LISTS selected)
    list(FIND sanitized "${name}" found)
    if(found EQUAL -1)
      message(SEND_ERROR "${name} (label ${label}) lacks tsan-core")
      math(EXPR failures "${failures} + 1")
    endif()
  endforeach()
  message(STATUS "${count} '${label}' tests checked")
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} label problem(s)")
endif()
