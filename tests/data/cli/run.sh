#!/usr/bin/env bash
# Run every command of commands.txt into OUT_DIR with the nedlab script
# (or the command in $NEDLAB), stopping at the first non-zero exit.
#   tests/data/cli/run.sh OUT_DIR
#   diff -r -x '*.meta.json' tests/data/cli/golden OUT_DIR
set -euo pipefail
data=$(cd "$(dirname "$0")" && pwd)
out=$1
mkdir -p "$out"
while IFS= read -r line; do
    case $line in ''|'#'*) continue ;; esac
    line=${line//\{data\}/$data}
    line=${line//\{out\}/$out}
    ${NEDLAB:-nedlab} $line
done < "$data/commands.txt"
