# Corpus freshness gate: regenerates both seed corpora into OUT and
# requires every generated seed to equal the committed file of the same
# name, byte for byte. Committed seeds the generators no longer write
# (retired types, older encodings) are kept as extra replay inputs and
# are not compared.
#
#   cmake -DENVELOPE_FUZZ=<exe> -DWAL_FUZZ=<exe> -DCORPUS=<fuzz/corpus>
#         -DOUT=<dir> -P corpus_fresh.cmake

set(generators envelope "${ENVELOPE_FUZZ}" wal "${WAL_FUZZ}")
set(stale "")
while(generators)
  list(POP_FRONT generators surface exe)
  set(dir "${OUT}/${surface}")
  file(REMOVE_RECURSE "${dir}")
  execute_process(COMMAND "${exe}" --generate "${dir}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${exe} --generate ${dir} failed: ${rc}")
  endif()
  file(GLOB seeds RELATIVE "${dir}" "${dir}/*")
  if(NOT seeds)
    message(FATAL_ERROR "${exe} --generate wrote no seeds")
  endif()
  foreach(seed IN LISTS seeds)
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${dir}/${seed}" "${CORPUS}/${surface}/${seed}"
                    RESULT_VARIABLE differs OUTPUT_QUIET ERROR_QUIET)
    if(differs)
      list(APPEND stale "${surface}/${seed}")
    endif()
  endforeach()
endwhile()

if(stale)
  list(JOIN stale "\n  " names)
  message(FATAL_ERROR
          "generated seeds missing from or different to ${CORPUS}:\n"
          "  ${names}\n"
          "Regenerate with --generate and commit them; keep a replaced "
          "seed under a new name so no corpus input is lost.")
endif()
