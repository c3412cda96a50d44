#!/bin/sh
# Regenerates the data recorded in EXPERIMENTS.md:
#
#   scripts/gen_experiments.sh > experiments_output.txt
#
# The defaults (300 nodes, 2 runs per point, τ up to 8, seed 1) are the
# preset experiments_output.txt was made with; every line except the
# "(figure N: …)" timings is deterministic. The run takes about a minute
# on a 2-vCPU box. The paper uses 1600 nodes and 100 runs per point:
# override via NODES, RUNS, MAXTAU, or set FIGARGS=-full for paper-scale
# presets.
set -e
cd "$(dirname "$0")/.."
go build ./...
go run ./cmd/dccsim -fig all -nodes "${NODES:-300}" -runs "${RUNS:-2}" -maxtau "${MAXTAU:-8}" -seed 1 ${FIGARGS:-}
