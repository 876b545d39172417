# Run a command that must fail: assert a nonzero exit status and a
# stdout/stderr message matching EXPECT (a regex). The command follows
# "--" on the cmake command line.
#
#   cmake -DEXPECT="cannot write" -P expect_failure.cmake -- tool args...
if(NOT DEFINED EXPECT)
    message(FATAL_ERROR "missing -DEXPECT=<regex>")
endif()
set(command "")
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(collect)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(collect ON)
    endif()
endforeach()
if(NOT command)
    message(FATAL_ERROR "no command after --")
endif()
execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(status EQUAL 0)
    message(FATAL_ERROR "expected a nonzero exit, got 0:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "exit ${status}, but no \"${EXPECT}\" in:\n${out}")
endif()
