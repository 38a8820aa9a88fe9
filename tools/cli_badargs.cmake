# Regression test: negative or overflowing size-like CLI arguments must be
# rejected with a clear range error. Before ArgParser::get_size, a cast
# like std::size_t(get_int("count")) wrapped `--count -1` to ~1.8e19 and
# attempted a multi-GB allocation. Invoked as:
#   cmake -DRANM_CLI=<binary> -P cli_badargs.cmake

function(expect_stderr_matches pattern)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(rc EQUAL 0)
    message(FATAL_ERROR "expected failure but command succeeded: ${ARGN}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
      "expected stderr matching '${pattern}' for: ${ARGN}\nstderr was: ${err}")
  endif()
endfunction()

function(expect_range_error)
  expect_stderr_matches("must be in" ${ARGV})
endfunction()

expect_range_error(${RANM_CLI} gen --workload digits --count -1 --out /dev/null)
expect_range_error(${RANM_CLI} gen --workload digits --count 99999999999 --out /dev/null)
expect_range_error(${RANM_CLI} build --net x --data x --layer -1 --type minmax --out /dev/null)
expect_range_error(${RANM_CLI} build --net x --data x --layer 1 --type minmax --bits -1 --out /dev/null)
expect_range_error(${RANM_CLI} train --data x --task regression --epochs -1 --out /dev/null)
expect_range_error(${RANM_CLI} eval --net x --monitor x --layer 1 --in-dist x --threads -1)

# PerturbationSpec boundary: NaN/negative/non-finite --delta and an
# out-of-range --kp must be rejected before any artifact load or
# propagation (a NaN delta used to flow straight into the bound engine).
expect_range_error(${RANM_CLI} build --net x --data x --layer 3 --type minmax --robust --delta nan --out /dev/null)
expect_range_error(${RANM_CLI} build --net x --data x --layer 3 --type minmax --robust --delta -0.5 --out /dev/null)
expect_range_error(${RANM_CLI} build --net x --data x --layer 3 --type minmax --robust --delta inf --out /dev/null)
expect_range_error(${RANM_CLI} build --net x --data x --layer 3 --type minmax --robust --kp 3 --out /dev/null)
expect_range_error(${RANM_CLI} build --net x --data x --layer 0 --type minmax --out /dev/null)
# There is one bound engine; the old engine selector is gone, not ignored.
expect_stderr_matches("unknown option --backend"
  ${RANM_CLI} build --net x --data x --layer 3 --type minmax --backend bogus --out /dev/null)

# Misspelled options must be fatal, not silently ignored. The motivating
# regression: `build --shard 4` parsed clean, dropped the flag on the
# floor, and produced an unsharded monitor — the requested deployment
# shape silently never happened. Every subcommand declares its known key
# set and near-miss typos get a suggestion.
expect_stderr_matches("unknown option --shard .did you mean --shards\\?."
  ${RANM_CLI} build --net x --data x --layer 1 --type minmax --shard 4 --out /dev/null)
expect_stderr_matches("unknown option --cout .did you mean --count\\?."
  ${RANM_CLI} gen --workload digits --cout 10 --out /dev/null)
expect_stderr_matches("unknown option --epoch .did you mean --epochs\\?."
  ${RANM_CLI} train --data x --task regression --epoch 1 --out /dev/null)
expect_stderr_matches("unknown option --thread .did you mean --threads\\?."
  ${RANM_CLI} eval --net x --monitor x --layer 1 --in-dist x --thread 2)
expect_stderr_matches("unknown option --bacth .did you mean --batch\\?."
  ${RANM_CLI} query --socket /tmp/none.sock --in-dist x --bacth 8)
expect_stderr_matches("unknown option --nett .did you mean --net\\?."
  ${RANM_CLI} info --nett x)
expect_stderr_matches("unknown option --monito .did you mean --monitor\\?."
  ${RANM_CLI} compile --monito x --out /dev/null)
# Far-from-anything typos still fail (no-suggestion wording is covered
# by args_test; cmake regexes cannot assert absence cleanly).
expect_stderr_matches("unknown option --frobnicate"
  ${RANM_CLI} gen --workload digits --frobnicate 1 --out /dev/null)

# --key=value is not part of the grammar; the parser names the fix
# instead of treating "--type=minmax" as an (ignored) unknown key.
expect_stderr_matches("use '--type minmax'"
  ${RANM_CLI} build --net x --data x --layer 3 --type=minmax --out /dev/null)

# Lifecycle subcommands declare their key sets like everything else.
expect_stderr_matches("unknown option --bacth .did you mean --batch\\?."
  ${RANM_CLI} observe --socket /tmp/none.sock --data x --bacth 8)
expect_stderr_matches("unknown option --sokcet .did you mean --socket\\?."
  ${RANM_CLI} swap --sokcet /tmp/none.sock)
expect_range_error(${RANM_CLI} rollback --socket /tmp/none.sock --generation -1)
# Port 0 in a client endpoint is rejected by the endpoint parser before
# any connect.
expect_stderr_matches("invalid port"
  ${RANM_CLI} query --tcp 127.0.0.1:0 --in-dist x)

# The variable-order optimizer is gone, not ignored: `optimize` is an
# unknown command like any other.
expect_stderr_matches("unknown command 'optimize'"
  ${RANM_CLI} optimize --monitor x --out y)

# The serving daemon validates its flags the same way.
if(DEFINED RANM_SERVE)
  expect_stderr_matches("unknown option --montior .did you mean --monitor\\?."
    ${RANM_SERVE} --net x --montior y --layer 1 --socket /tmp/none.sock)
  # A daemon on a kernel-assigned ephemeral port is unreachable by
  # construction; --tcp 0 must be refused loudly, not bound silently.
  expect_stderr_matches("ephemeral port"
    ${RANM_SERVE} --net x --monitor y --layer 1 --tcp 0)
  expect_stderr_matches("--keep needs --generations"
    ${RANM_SERVE} --net x --monitor y --layer 1 --socket /tmp/none.sock --keep 3)
endif()
