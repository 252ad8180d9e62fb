# HelpFormsSmoke: every scenario form that `km_run --help` or
# `km_serve --help` advertises (any form taking `--workload W`: km_run
# run, km_run sweep, km_serve request) must run as written.  The forms
# are read from the help texts themselves, so a new or changed form is
# covered without editing this script: each one runs with its required
# arguments only (placeholders W, SPEC, PATH and K1,K2,... filled in
# with a small connectivity scenario) and must exit 0.  The km_serve
# forms run against a daemon started for the purpose and shut down
# afterwards.  Every subcommand either help text lists must also answer
# `<tool> <sub> --help` and `<tool> <sub> -h` with the usage on stdout
# and exit 0.
#
# Invoked by CTest (see tests/CMakeLists.txt) as:
#   cmake -DKM_RUN=<km_run> -DKM_SERVE=<km_serve> -DOUT_DIR=<scratch dir>
#         -P help_forms_smoke.cmake
# The script re-invokes itself with -DSTAGE=client as the first process
# of a two-process pipeline whose second process is the daemon.  That
# order matters: the daemon's stdout then goes to this script, which
# reads it until the daemon exits, so the daemon's final log lines can
# never hit a closed pipe (SIGPIPE) after the client has finished.
foreach(var KM_RUN KM_SERVE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "help_forms_smoke.cmake: ${var} is not set")
  endif()
endforeach()

set(socket ${OUT_DIR}/serve.sock)

# Sets `out` to the command lines (one string each, arguments separated
# by spaces) of every scenario form in `tool`'s --help text.
function(scenario_forms tool out)
  execute_process(COMMAND ${tool} --help
    OUTPUT_VARIABLE help_out ERROR_VARIABLE help_err RESULT_VARIABLE help_rc)
  if(NOT help_rc EQUAL 0)
    message(FATAL_ERROR "${tool} --help exited ${help_rc}:\n${help_err}")
  endif()
  # Brackets would confuse CMake's list splitting; angle brackets do not.
  string(REPLACE "[" "<" help "${help_out}${help_err}")
  string(REPLACE "]" ">" help "${help}")
  # A form is a "  km_xxx sub ..." line plus its indented "<...>" lines.
  string(REGEX MATCHALL "\n  km_[a-z]+ [a-z]+[^\n]*(\n +<[^\n]*)*" forms
         "${help}")
  set(commands "")
  foreach(form IN LISTS forms)
    string(FIND "${form}" "--workload W" at)
    if(at EQUAL -1)
      continue()
    endif()
    # Required part: everything before the first optional flag.
    string(FIND "${form}" "<" first_optional)
    string(SUBSTRING "${form}" 0 ${first_optional} required)
    string(REGEX REPLACE "[ \n]+" " " required "${required}")
    string(STRIP "${required}" required)
    separate_arguments(args UNIX_COMMAND "${required}")
    list(POP_FRONT args)  # the program name, replaced by its full path
    set(command "${tool}")
    foreach(arg IN LISTS args)
      if(arg STREQUAL "W")
        set(arg connectivity)
      elseif(arg STREQUAL "SPEC")
        set(arg gnp:n=64,p=0.08)
      elseif(arg STREQUAL "PATH")
        set(arg ${socket})
      elseif(arg STREQUAL "K1,K2,...")
        set(arg 5,8)
      endif()
      string(APPEND command " ${arg}")
    endforeach()
    list(APPEND commands "${command}")
  endforeach()
  if(NOT commands)
    message(FATAL_ERROR
      "${tool} --help advertises no form with --workload W:\n${help}")
  endif()
  set(${out} "${commands}" PARENT_SCOPE)
endfunction()

# Sets `out` to a report of the subcommands in `tool`'s --help text whose
# `--help` or `-h` form does not print the usage on stdout with exit 0
# (empty if none).
function(subcommand_help tool out)
  execute_process(COMMAND ${tool} --help
    OUTPUT_VARIABLE help_out ERROR_VARIABLE help_err)
  string(REGEX MATCHALL "\n  km_[a-z]+ [a-z]+" lines "${help_out}${help_err}")
  set(subs "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE ".* " "" sub "${line}")
    list(APPEND subs ${sub})
  endforeach()
  list(REMOVE_DUPLICATES subs)
  if(NOT subs)
    message(FATAL_ERROR "${tool} --help lists no subcommand")
  endif()
  set(report "")
  foreach(sub IN LISTS subs)
    foreach(flag --help -h)
      execute_process(COMMAND ${tool} ${sub} ${flag}
        OUTPUT_VARIABLE sub_out ERROR_VARIABLE sub_err RESULT_VARIABLE rc)
      if(NOT rc EQUAL 0)
        string(REGEX MATCH "^[^\n]*" first_line "${sub_err}")
        string(APPEND report "\n`${tool} ${sub} ${flag}` exited ${rc}: "
               "${first_line}")
      elseif(NOT sub_out MATCHES "usage:")
        string(APPEND report
               "\n`${tool} ${sub} ${flag}` printed no usage on stdout")
      else()
        message(NOTICE "ok: ${tool} ${sub} ${flag}")
      endif()
    endforeach()
  endforeach()
  set(${out} "${report}" PARENT_SCOPE)
endfunction()

# Runs each command line in OUT_DIR (so default output paths land
# there); sets `out` to a report of the failures (empty if none).
function(run_forms commands out)
  set(report "")
  foreach(command IN LISTS commands)
    separate_arguments(argv UNIX_COMMAND "${command}")
    execute_process(COMMAND ${argv} WORKING_DIRECTORY ${OUT_DIR}
      OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      string(REGEX MATCH "^[^\n]*" first_line "${err}")
      string(APPEND report "\n`${command}` exited ${rc}: ${first_line}")
    else()
      message(NOTICE "ok: ${command}")
    endif()
  endforeach()
  set(${out} "${report}" PARENT_SCOPE)
endfunction()

if(STAGE STREQUAL "client")
  # Wait for the daemon, run the km_serve forms, and always shut it down
  # so the pipeline ends even when a form fails.
  set(up FALSE)
  foreach(attempt RANGE 100)
    execute_process(COMMAND ${KM_SERVE} ping --socket ${socket}
      OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE ping_rc)
    if(ping_rc EQUAL 0)
      set(up TRUE)
      break()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
  endforeach()
  if(NOT up)
    message(FATAL_ERROR "km_serve daemon never answered a ping on ${socket}")
  endif()
  scenario_forms(${KM_SERVE} serve_forms)
  run_forms("${serve_forms}" failures)
  execute_process(COMMAND ${KM_SERVE} shutdown --socket ${socket}
    OUTPUT_QUIET ERROR_QUIET)
  if(failures)
    message(FATAL_ERROR "km_serve rejected an advertised form:${failures}")
  endif()
  return()
endif()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

subcommand_help(${KM_RUN} run_help_failures)
subcommand_help(${KM_SERVE} serve_help_failures)
if(run_help_failures OR serve_help_failures)
  message(FATAL_ERROR
    "subcommand help failed:${run_help_failures}${serve_help_failures}")
endif()

scenario_forms(${KM_RUN} run_forms)
run_forms("${run_forms}" failures)
if(failures)
  message(FATAL_ERROR "km_run rejected an advertised form:${failures}")
endif()

# The client reports on stderr; its stdout feeds the daemon's unread
# stdin.
execute_process(
  COMMAND ${CMAKE_COMMAND} -DSTAGE=client -DKM_RUN=${KM_RUN}
          -DKM_SERVE=${KM_SERVE} -DOUT_DIR=${OUT_DIR}
          -P ${CMAKE_CURRENT_LIST_FILE}
  COMMAND ${KM_SERVE} serve --socket ${socket}
  OUTPUT_VARIABLE serve_out ERROR_VARIABLE serve_err
  RESULTS_VARIABLE serve_rcs
  TIMEOUT 120)
if(NOT serve_rcs STREQUAL "0;0")
  message(FATAL_ERROR
    "km_serve forms failed (client;daemon exits ${serve_rcs}):\n"
    "${serve_err}\n${serve_out}")
endif()
message(NOTICE "${serve_err}")
