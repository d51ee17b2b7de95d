# Runs one bench and compares its output with a committed golden file,
# byte for byte.
#
#   cmake -DGOLDEN=<golden> -DOUT=<file> [-DFROM_STDOUT=ON]
#         -P compare_golden.cmake -- <command> [args...]
#
# With FROM_STDOUT the command's stdout is the output; otherwise the
# command writes OUT itself (e.g. micro_replay --results-out OUT) and
# its stdout goes to OUT.stdout. A non-zero exit or any byte of
# difference fails the test; a unified diff is printed when `diff` is
# on the PATH. A change that legitimately moves a bench's output
# re-records its golden and says so in CHANGES.md.

set(cmd "")
set(after_dashes OFF)
foreach(i RANGE 1 ${CMAKE_ARGC})
    if(i EQUAL CMAKE_ARGC)
        break()
    endif()
    if(after_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_dashes ON)
    endif()
endforeach()
if(NOT cmd OR NOT GOLDEN OR NOT OUT)
    message(FATAL_ERROR "usage: cmake -DGOLDEN=<file> -DOUT=<file> "
                        "[-DFROM_STDOUT=ON] -P compare_golden.cmake -- "
                        "<command> [args...]")
endif()

get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
file(REMOVE "${OUT}")
if(FROM_STDOUT)
    set(stdout_file "${OUT}")
else()
    set(stdout_file "${OUT}.stdout")
endif()
execute_process(COMMAND ${cmd}
                OUTPUT_FILE "${stdout_file}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${cmd}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(differs)
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND ${DIFF} -u "${GOLDEN}" "${OUT}")
    endif()
    message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
