# Golden-output check: run a tool and fail when its stdout differs from
# a committed file. Invoked by the `config_doc_fresh` CTest (the config
# reference generated from the parser's key tables) and the
# `fig11b_golden`, `fig11a_golden`, `fig06_golden` and `fig10_golden`
# CTests (the fig11b crossing-cost, fig11a allocation, fig06 Redis and
# fig10 SQLite tables) as:
#   cmake -DTOOL=<executable> -DGOLDEN=<committed file>
#         -DREGEN=<command regenerating it> -P cmake/CheckGolden.cmake

execute_process(COMMAND ${TOOL}
                OUTPUT_VARIABLE generated
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TOOL} failed with exit code ${rc}")
endif()

if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "${GOLDEN} does not exist; generate it with "
                      "`${REGEN}`")
endif()

file(READ ${GOLDEN} committed)
if(NOT generated STREQUAL committed)
  message(FATAL_ERROR
          "${GOLDEN} is stale: the tool's output changed. Review the "
          "difference, regenerate with `${REGEN}` and commit the "
          "result.")
endif()
