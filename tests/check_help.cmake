# ctest driver for the tools' -h/--help: both spellings must exit 0 and
# print the usage text to stdout, with nothing on stderr.
#   cmake -DTOOL=<path> -DNAME=<usage name> -P check_help.cmake
foreach(flag -h --help)
  execute_process(COMMAND ${TOOL} ${flag}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME} ${flag}: exit code ${rc}, expected 0\n${err}")
  endif()
  if(NOT out MATCHES "^usage: ${NAME} ")
    message(FATAL_ERROR "${NAME} ${flag}: usage text missing from stdout:\n${out}")
  endif()
  if(NOT err STREQUAL "")
    message(FATAL_ERROR "${NAME} ${flag}: unexpected stderr:\n${err}")
  endif()
endforeach()
