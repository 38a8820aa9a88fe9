# End-to-end smoke of ranm_cli driven by ctest: every subcommand
# (gen, train, build, compile, eval, info) runs against a scratch
# directory with a small step budget. Invoked as:
#   cmake -DRANM_CLI=<binary> -DWORK_DIR=<dir> -P cli_smoke.cmake

function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (exit ${rc}): ${ARGV}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

run(${RANM_CLI} gen --workload digits --count 40 --seed 3
    --out ${WORK_DIR}/train.bin)
run(${RANM_CLI} gen --workload digits --variant letters --count 20 --seed 4
    --out ${WORK_DIR}/ood.bin)
run(${RANM_CLI} train --data ${WORK_DIR}/train.bin --task classification
    --epochs 1 --out ${WORK_DIR}/net.bin)
run(${RANM_CLI} build --net ${WORK_DIR}/net.bin --data ${WORK_DIR}/train.bin
    --layer 6 --type onoff --robust --delta 0.005 --out ${WORK_DIR}/mon.bin)
run(${RANM_CLI} eval --net ${WORK_DIR}/net.bin --monitor ${WORK_DIR}/mon.bin
    --layer 6 --in-dist ${WORK_DIR}/train.bin --ood ${WORK_DIR}/ood.bin)

# The same robust build in the zonotope domain, and its monitor through
# eval.
run(${RANM_CLI} build --net ${WORK_DIR}/net.bin --data ${WORK_DIR}/train.bin
    --layer 6 --type onoff --robust --delta 0.005 --domain zonotope
    --out ${WORK_DIR}/mon_zono.bin)
run(${RANM_CLI} eval --net ${WORK_DIR}/net.bin
    --monitor ${WORK_DIR}/mon_zono.bin --layer 6 --in-dist ${WORK_DIR}/train.bin
    --ood ${WORK_DIR}/ood.bin)

# Compile the frozen monitor and run the compiled artifact through the
# same eval/info paths — the deployment form must be a drop-in.
run(${RANM_CLI} compile --monitor ${WORK_DIR}/mon.bin
    --out ${WORK_DIR}/mon.rcm)
run(${RANM_CLI} eval --net ${WORK_DIR}/net.bin --monitor ${WORK_DIR}/mon.rcm
    --layer 6 --in-dist ${WORK_DIR}/train.bin --ood ${WORK_DIR}/ood.bin)

run(${RANM_CLI} info --net ${WORK_DIR}/net.bin)
run(${RANM_CLI} info --monitor ${WORK_DIR}/mon.bin)
run(${RANM_CLI} info --monitor ${WORK_DIR}/mon.rcm)
run(${RANM_CLI} info --data ${WORK_DIR}/train.bin)
