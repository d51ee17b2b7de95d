# Fails if a shared sim::detail helper carries AVX2 code.
#
# kernels_avx2.cc enables AVX2 for its own code only, with a target
# pragma after its includes. The inline helpers it shares with the
# scalar kernels (sim/kernels_detail.hh) are weak symbols that either
# translation unit may provide; a copy compiled for AVX2 would fault in
# the scalar path on a host without it, whichever copy the linker keeps.
# This disassembles each binary and fails on any ymm operand in a
# function whose name mentions spikesim::sim::detail::, except the AVX2
# TU's own walk (its anonymous namespace and icacheShardAvx2).
#
# Usage: cmake -DOBJDUMP=<objdump> -DWORK_DIR=<dir>
#              -P check_no_vex.cmake -- <binary>...

set(binaries "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND binaries "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_dashes TRUE)
    endif()
endforeach()
if(NOT binaries)
    message(FATAL_ERROR "no binaries given after --")
endif()

set(own_walk "spikesim::sim::detail::(\\(anonymous namespace\\)|icacheShardAvx2\\()")
set(bad "")
foreach(bin IN LISTS binaries)
    get_filename_component(name "${bin}" NAME)
    set(dis "${WORK_DIR}/${name}.no_vex.dis")
    execute_process(
        COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn -j .text "${bin}"
        OUTPUT_FILE "${dis}" RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${OBJDUMP} failed on ${bin}")
    endif()
    # Keep only function headers ("<addr> <name>:") and ymm operands.
    file(STRINGS "${dis}" lines REGEX "^[0-9a-f]+ <.*>:$|%ymm")
    set(fn "")
    set(watch FALSE)
    set(checked 0)
    foreach(line IN LISTS lines)
        if(line MATCHES "^[0-9a-f]+ <(.*)>:$")
            set(fn "${CMAKE_MATCH_1}")
            set(watch FALSE)
            if(fn MATCHES "spikesim::sim::detail::" AND
               NOT fn MATCHES "${own_walk}")
                set(watch TRUE)
                math(EXPR checked "${checked} + 1")
            endif()
        elseif(watch)
            list(APPEND bad "${name}: ${fn}")
            set(watch FALSE)
        endif()
    endforeach()
    if(checked EQUAL 0)
        message(FATAL_ERROR
            "${name}: no spikesim::sim::detail:: functions found "
            "(stripped binary or no demangling?)")
    endif()
    message(STATUS "${name}: ${checked} shared detail functions checked")
    file(REMOVE "${dis}")
endforeach()

if(bad)
    list(JOIN bad "\n  " report)
    message(FATAL_ERROR "AVX2 (ymm) code in shared helpers:\n  ${report}")
endif()
