# dtcli must reject malformed numeric flags and unknown dispatch modes:
# each bad value exits non-zero with a message naming its flag, while the
# same script and feed with well-formed values run cleanly.
#
#   cmake -DDTCLI=<path to dtcli> -DWORK_DIR=<scratch dir> \
#         -P dtcli_flags_test.cmake

set(script "${WORK_DIR}/dtcli_flags.sql")
set(feed "${WORK_DIR}/dtcli_flags.csv")
file(WRITE "${script}"
     "CREATE STREAM R (a INTEGER);\n"
     "SELECT a, COUNT(*) AS n FROM R GROUP BY a WINDOW R['1 second'];\n"
     "SELECT a, SUM(a) AS s FROM R GROUP BY a WINDOW R['1 second'];\n")
file(WRITE "${feed}" "r,0.1,1\nr,0.5,2\nr,1.2,1\n")

execute_process(
  COMMAND "${DTCLI}" --queue-capacity=5 --workers=2 --seed=7
          --memory-budget=65536 --cell-width=2.5 --dispatch=stealing
          --register-at=1:0.5 --unregister-at=0:1.1 "${script}" "${feed}"
  RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "well-formed flags failed (${result}): ${err}")
endif()

foreach(bad IN ITEMS --queue-capacity=-5 --workers=abc --seed=xyz
                     --memory-budget=64k --dispatch=least-loaded
                     --cell-width=nan --register-at=x:1
                     --unregister-at=0:1s)
  string(REGEX REPLACE "=.*" "" flag "${bad}")
  execute_process(COMMAND "${DTCLI}" "${bad}" "${script}" "${feed}"
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  if(result EQUAL 0)
    message(FATAL_ERROR "dtcli accepted ${bad}")
  endif()
  string(FIND "${err}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "rejection of ${bad} does not name ${flag}: ${err}")
  endif()
endforeach()
