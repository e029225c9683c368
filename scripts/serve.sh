#!/usr/bin/env bash
# Daemon chaos gate: build, then drive a `repro serve` daemon with the
# deterministic multi-client chaos harness — garbage frames, mid-frame
# disconnects, and kill -9/restart cycles mid-run.  Exit status is 0
# iff every client slot resolved within its budget (zero hung
# clients), every cell served twice was byte-identical, and the daemon
# drained cleanly at the end.
#
# The same --seed replays the same request mix, the same chaos draws
# and the same kill schedule exactly.
set -euo pipefail

usage() {
  cat <<'EOF'
usage: scripts/serve.sh [serveload options]

  scripts/serve.sh                      # fixed-seed smoke (dune @serve)
  scripts/serve.sh --requests 500 --clients 32 --kill 0.2 --seed 9
  scripts/serve.sh --duration-s 60 --clients 64 --kill 10 --kill 30 \
      --mix-plan 'budget=64,ramp=0:0.002'   # soak

With no arguments, runs the fixed-seed `dune build @serve` smoke.
Otherwise arguments go straight to `repro serveload`.
EOF
}

case "${1:-}" in
-h | --help)
  usage
  exit 0
  ;;
esac

if ! command -v dune >/dev/null 2>&1; then
  echo "scripts/serve.sh: error: 'dune' not found on PATH." >&2
  echo "Install the OCaml toolchain (e.g. 'opam install dune') or run" >&2
  echo "inside an opam environment: 'opam exec -- scripts/serve.sh'." >&2
  exit 127
fi

cd "$(dirname "$0")/.."
dune build
if [ "$#" -eq 0 ]; then
  exec dune build @serve
fi
exec dune exec --no-build bin/main.exe -- serveload "$@"
