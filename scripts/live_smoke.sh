#!/usr/bin/env bash
# Live serving smoke: duetd, the one serving binary, end to end over real
# sockets.
#
#   scripts/live_smoke.sh BUILD_DIR PORT OUT_DIR [duetd options...]
#
#   1. start duetd in a fresh data dir with 2 workers on UDP port PORT (plus
#      any extra duetd options, e.g. --engine stateless) and wait until its
#      ops socket answers `duetctl ping`;
#   2. add VIP 100.0.v.1 with DIPs 10.v.0.1-4 for v = 0..3 (the VIP scheme
#      `duetctl load` targets);
#   3. run a closed-loop `duetctl load` burst (zero integrity and remap
#      violations, JSON in OUT_DIR/duetload.json), then `duetctl audit`;
#   4. with --engine stateless, `duetctl stats` must report `flows 0`: the
#      stateless engine keeps no per-flow state;
#   5. `duetctl drain`, and duetd must exit 0.
#
# Every step must exit 0; the script exits 1 on the first that does not.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 3 ]; then
  echo "usage: $0 BUILD_DIR PORT OUT_DIR [duetd options...]" >&2
  exit 2
fi
BUILD_DIR="$1"
PORT="$2"
OUT="$3"
shift 3
DUETD="$BUILD_DIR/examples/duetd"
DUETCTL="$BUILD_DIR/examples/duetctl"

mkdir -p "$OUT"
DATA="$(mktemp -d)"
SOCK="$DATA/duetd.sock"
"$DUETD" --dir "$DATA" --workers 2 --port "$PORT" "$@" >"$OUT/duetd.log" 2>&1 &
DAEMON_PID=$!
cleanup() {
  kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$DATA"
}
trap cleanup EXIT

ctl() { "$DUETCTL" "$@" --socket "$SOCK"; }

for _ in $(seq 100); do
  ctl ping --retries 0 >/dev/null 2>&1 && break
  sleep 0.1
done
ctl ping

for v in 0 1 2 3; do
  ctl add-vip "100.0.$v.1" "10.$v.0.1" "10.$v.0.2" "10.$v.0.3" "10.$v.0.4"
done
"$DUETCTL" load --port "$PORT" --packets 20000 --flows 64 --json "$OUT/duetload.json"
ctl audit

stats="$(ctl stats)"
echo "$stats"
if [[ " $* " == *" --engine stateless "* ]] && ! grep -q '| flows 0 |' <<<"$stats"; then
  echo "live_smoke: the stateless engine pinned flows" >&2
  exit 1
fi

ctl drain
wait "$DAEMON_PID"
