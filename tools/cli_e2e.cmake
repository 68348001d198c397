# End-to-end: generate a trace, run the CLI on it with a checkpoint,
# restore the checkpoint on an empty continuation, verify csv output.
execute_process(COMMAND ${LTC_GEN} --dataset zipf --records 5000
                --periods 10 ${WORK_DIR}/e2e_trace.csv
                RESULT_VARIABLE gen_rc)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "ltc_gen failed: ${gen_rc}")
endif()

execute_process(COMMAND ${LTC_CLI} --k 5 --periods 10 --csv
                --save ${WORK_DIR}/e2e_ckpt.bin ${WORK_DIR}/e2e_trace.csv
                OUTPUT_VARIABLE out RESULT_VARIABLE cli_rc)
if(NOT cli_rc EQUAL 0)
  message(FATAL_ERROR "ltc_cli failed: ${cli_rc}")
endif()
string(FIND "${out}" "item,frequency,persistency,significance" header_pos)
if(header_pos EQUAL -1)
  message(FATAL_ERROR "csv header missing in: ${out}")
endif()

execute_process(COMMAND ${LTC_CLI} --k 5 --periods 10 --csv
                --load ${WORK_DIR}/e2e_ckpt.bin ${WORK_DIR}/e2e_trace.csv
                RESULT_VARIABLE reload_rc)
if(NOT reload_rc EQUAL 0)
  message(FATAL_ERROR "ltc_cli --load failed: ${reload_rc}")
endif()

# Sharded checkpoints: --threads composes with --save/--load, and
# --checkpoint-every rotates mid-run snapshots next to the save path.
execute_process(COMMAND ${LTC_CLI} --k 5 --periods 10 --csv --threads 2
                --save ${WORK_DIR}/e2e_sharded.bin --checkpoint-every 1000
                ${WORK_DIR}/e2e_trace.csv
                RESULT_VARIABLE sharded_rc)
if(NOT sharded_rc EQUAL 0)
  message(FATAL_ERROR "ltc_cli --threads --save failed: ${sharded_rc}")
endif()
file(GLOB rotation ${WORK_DIR}/e2e_sharded.bin.*.snap)
if(rotation STREQUAL "")
  message(FATAL_ERROR "--checkpoint-every produced no rotation snapshots")
endif()

execute_process(COMMAND ${LTC_CLI} --k 5 --periods 10 --csv --threads 2
                --load ${WORK_DIR}/e2e_sharded.bin ${WORK_DIR}/e2e_trace.csv
                RESULT_VARIABLE sharded_reload_rc)
if(NOT sharded_reload_rc EQUAL 0)
  message(FATAL_ERROR "ltc_cli --threads --load failed: ${sharded_reload_rc}")
endif()

# A missing/damaged checkpoint must walk back to the rotation, not
# fail: delete the final save, leaving only the mid-run snapshots.
file(REMOVE ${WORK_DIR}/e2e_sharded.bin)
execute_process(COMMAND ${LTC_CLI} --k 5 --periods 10 --csv --threads 2
                --load ${WORK_DIR}/e2e_sharded.bin ${WORK_DIR}/e2e_trace.csv
                RESULT_VARIABLE walkback_rc)
if(NOT walkback_rc EQUAL 0)
  message(FATAL_ERROR "rotation walk-back failed: ${walkback_rc}")
endif()

# Single-table rotation: the feed loop owns the cadence for both table
# kinds, and fires it at every boundary, the last chunk's included. So
# with a cadence dividing the trace, the newest rotation snapshot holds
# the whole trace, and the walk-back reports what the intact save does.
file(GLOB stale_single ${WORK_DIR}/e2e_single.bin*)
if(stale_single)
  file(REMOVE ${stale_single})
endif()
execute_process(COMMAND ${LTC_CLI} --k 5 --periods 10 --csv
                --save ${WORK_DIR}/e2e_single.bin --checkpoint-every 1000
                ${WORK_DIR}/e2e_trace.csv
                RESULT_VARIABLE single_rc)
if(NOT single_rc EQUAL 0)
  message(FATAL_ERROR "ltc_cli --save --checkpoint-every failed: ${single_rc}")
endif()
file(GLOB single_rotation ${WORK_DIR}/e2e_single.bin.*.snap)
if(single_rotation STREQUAL "")
  message(FATAL_ERROR "single-table --checkpoint-every produced no rotation")
endif()

execute_process(COMMAND ${LTC_CLI} --k 5 --periods 10 --csv
                --load ${WORK_DIR}/e2e_single.bin ${WORK_DIR}/e2e_trace.csv
                OUTPUT_VARIABLE single_loaded RESULT_VARIABLE single_load_rc)
if(NOT single_load_rc EQUAL 0)
  message(FATAL_ERROR "ltc_cli --load failed: ${single_load_rc}")
endif()
file(REMOVE ${WORK_DIR}/e2e_single.bin)
execute_process(COMMAND ${LTC_CLI} --k 5 --periods 10 --csv
                --load ${WORK_DIR}/e2e_single.bin ${WORK_DIR}/e2e_trace.csv
                OUTPUT_VARIABLE single_walked RESULT_VARIABLE single_walkback_rc)
if(NOT single_walkback_rc EQUAL 0)
  message(FATAL_ERROR "single-table walk-back failed: ${single_walkback_rc}")
endif()
if(NOT single_walked STREQUAL single_loaded)
  message(FATAL_ERROR "walk-back did not restore the last boundary's "
                      "snapshot:\n${single_walked}\nvs\n${single_loaded}")
endif()

# A token trace numbers its tokens in first-seen order, in each run
# anew: an item ID read back in another run names a different token.
# Saved A = 300 x (alice, bob), a --load of B = 50 x (carol, alice) would
# report carol with alice's counts and alice with bob's. So --load,
# --push-to and a --store reopen refuse a token trace (usage error, 2).
string(REPEAT "alice\nbob\n" 300 tokens_a)
string(REPEAT "carol\nalice\n" 50 tokens_b)
file(WRITE ${WORK_DIR}/e2e_tokens_a.txt "${tokens_a}")
file(WRITE ${WORK_DIR}/e2e_tokens_b.txt "${tokens_b}")
execute_process(COMMAND ${LTC_CLI} --csv --save ${WORK_DIR}/e2e_tokens.bin
                ${WORK_DIR}/e2e_tokens_a.txt
                RESULT_VARIABLE tokens_save_rc)
if(NOT tokens_save_rc EQUAL 0)
  message(FATAL_ERROR "ltc_cli --save on a token trace failed: "
                      "${tokens_save_rc}")
endif()
execute_process(COMMAND ${LTC_CLI} --csv --load ${WORK_DIR}/e2e_tokens.bin
                ${WORK_DIR}/e2e_tokens_b.txt
                OUTPUT_VARIABLE tokens_loaded RESULT_VARIABLE tokens_load_rc)
if(NOT tokens_load_rc EQUAL 2)
  message(FATAL_ERROR "--load on a token trace must be a usage error (2), "
                      "got ${tokens_load_rc}:\n${tokens_loaded}")
endif()
execute_process(COMMAND ${LTC_CLI} --push-to 127.0.0.1:9 --node-id 1
                ${WORK_DIR}/e2e_tokens_b.txt
                RESULT_VARIABLE tokens_push_rc)
if(NOT tokens_push_rc EQUAL 2)
  message(FATAL_ERROR "--push-to on a token trace must be a usage error "
                      "(2), got ${tokens_push_rc}")
endif()
file(REMOVE_RECURSE ${WORK_DIR}/e2e_tokens_store)
execute_process(COMMAND ${LTC_CLI} --store ${WORK_DIR}/e2e_tokens_store
                ${WORK_DIR}/e2e_tokens_a.txt
                RESULT_VARIABLE tokens_store_rc)
if(NOT tokens_store_rc EQUAL 0)
  message(FATAL_ERROR "a new --store on a token trace failed: "
                      "${tokens_store_rc}")
endif()
execute_process(COMMAND ${LTC_CLI} --store ${WORK_DIR}/e2e_tokens_store
                ${WORK_DIR}/e2e_tokens_b.txt
                RESULT_VARIABLE tokens_reopen_rc)
if(NOT tokens_reopen_rc EQUAL 2)
  message(FATAL_ERROR "a --store reopen on a token trace must be a usage "
                      "error (2), got ${tokens_reopen_rc}")
endif()
