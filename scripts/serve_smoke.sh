#!/usr/bin/env bash
# serve-smoke: the daemon's kill/restart acceptance check, end to end
# through the CLI.
#
#   1. record a churn trace;
#   2. run A: serve the whole tail uninterrupted, final checkpoint ckA;
#   3. run B: serve the same tail paced, answer live ping/query traffic,
#      SIGTERM it mid-history (the signal path writes a checkpoint);
#   4. restart B from its checkpoint: it must log the resume, replay
#      only the remaining epochs, and finish with a final checkpoint
#      byte-identical to run A's;
#   5. resume both final checkpoints as serving daemons and assert the
#      two answer an identical query batch identically;
#   6. daemon A's STATS must count every finite, non-zero answer of
#      that batch as either a near or a far answer.
#
# Artifacts (logs, checkpoints, query transcripts) land in
# $SERVE_SMOKE_DIR (default ./serve-smoke-out) for CI upload. Sockets
# live in a mktemp dir: path-length limits on AF_UNIX are tight.
set -euo pipefail

OUT=${SERVE_SMOKE_DIR:-serve-smoke-out}
rm -rf "$OUT"
mkdir -p "$OUT"

SOCKDIR=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$SOCKDIR"
}
trap cleanup EXIT

dune build bin/topoctl.exe
TOPOCTL=_build/default/bin/topoctl.exe

TRACE="$OUT/trace.ubg"
CK_A="$OUT/a.ck"
CK_B="$OUT/b.ck"
SOCK_A="$SOCKDIR/a.sock"
SOCK_B="$SOCKDIR/b.sock"
EPOCHS=12

epoch_of() { "$TOPOCTL" ping "$1" | sed -n 's/.*epoch \([0-9]*\).*/\1/p'; }

wait_for_socket() {
  for _ in $(seq 1 400); do
    [ -S "$1" ] && return 0
    sleep 0.05
  done
  echo "serve-smoke: socket $1 never appeared" >&2
  return 1
}

echo "== record a $EPOCHS-epoch trace =="
"$TOPOCTL" churn "$TRACE" --record -n 120 --epochs "$EPOCHS" --batch-max 5

echo "== run A: uninterrupted =="
"$TOPOCTL" serve "$TRACE" --socket "$SOCK_A" --checkpoint "$CK_A" \
  --period 0 --quit-at-tail | tee "$OUT/a.log"
grep -q "stopped at epoch $EPOCHS" "$OUT/a.log"

echo "== run B: live traffic, killed mid-history =="
"$TOPOCTL" serve "$TRACE" --socket "$SOCK_B" --checkpoint "$CK_B" \
  --period 0.2 >"$OUT/b1.log" 2>&1 &
B_PID=$!
PIDS+=("$B_PID")
wait_for_socket "$SOCK_B"
"$TOPOCTL" ping --stats "$SOCK_B" | tee "$OUT/b1.ping"
"$TOPOCTL" query --connect "$SOCK_B" 0 7 --path | tee "$OUT/b1.query"
grep -q "estimate 0 -> 7" "$OUT/b1.query"
# Let it get partway through the tail, then SIGTERM.
KILL_EPOCH=0
for _ in $(seq 1 400); do
  KILL_EPOCH=$(epoch_of "$SOCK_B")
  [ "${KILL_EPOCH:-0}" -ge 4 ] && break
  sleep 0.05
done
if [ "${KILL_EPOCH:-0}" -lt 4 ] || [ "$KILL_EPOCH" -ge "$EPOCHS" ]; then
  echo "serve-smoke: daemon B at epoch ${KILL_EPOCH:-?}, wanted mid-history" >&2
  exit 1
fi
echo "killing daemon B (pid $B_PID) around epoch $KILL_EPOCH"
kill -TERM "$B_PID"
wait "$B_PID" || true
PIDS=()
cat "$OUT/b1.log"
STOP_EPOCH=$(sed -n 's/.*stopped at epoch \([0-9]*\).*/\1/p' "$OUT/b1.log")
[ -n "$STOP_EPOCH" ] || { echo "serve-smoke: no stop summary in b1.log" >&2; exit 1; }
[ -f "$CK_B" ] || { echo "serve-smoke: no checkpoint after SIGTERM" >&2; exit 1; }

echo "== restart B: resume at epoch $STOP_EPOCH, finish the tail =="
"$TOPOCTL" serve "$TRACE" --socket "$SOCK_B" --checkpoint "$CK_B" \
  --period 0 --quit-at-tail 2>&1 | tee "$OUT/b2.log"
grep -q "resumed from .*epoch $STOP_EPOCH" "$OUT/b2.log"
grep -q "stopped at epoch $EPOCHS" "$OUT/b2.log"
# Resumed runs replay only the remaining history.
REPLAYED=$(sed -n 's/.*stopped at epoch [0-9]*: \([0-9]*\) epochs.*/\1/p' "$OUT/b2.log")
[ "$REPLAYED" -eq $((EPOCHS - STOP_EPOCH)) ] || {
  echo "serve-smoke: replayed $REPLAYED epochs, expected $((EPOCHS - STOP_EPOCH))" >&2
  exit 1
}

echo "== kill/restart must be invisible in the final state =="
cmp "$CK_A" "$CK_B"
echo "final checkpoints byte-identical"

echo "== both resumed daemons answer an identical batch identically =="
printf '0 7\n1 5\n2 9\n3 11\n10 42\n' >"$OUT/pairs.txt"
"$TOPOCTL" serve "$TRACE" --socket "$SOCK_A" --checkpoint "$CK_A" \
  --period 0 >"$OUT/a2.log" 2>&1 &
PIDS+=("$!")
"$TOPOCTL" serve "$TRACE" --socket "$SOCK_B" --checkpoint "$CK_B" \
  --period 0 >"$OUT/b3.log" 2>&1 &
PIDS+=("$!")
wait_for_socket "$SOCK_A"
wait_for_socket "$SOCK_B"
[ "$(epoch_of "$SOCK_A")" -eq "$EPOCHS" ]
[ "$(epoch_of "$SOCK_B")" -eq "$EPOCHS" ]
# Drop the wall-clock qps comment; keep the epoch stamps and answers.
"$TOPOCTL" query --connect "$SOCK_A" --batch "$OUT/pairs.txt" \
  | grep -v 'queries/s' >"$OUT/a.answers"
"$TOPOCTL" query --connect "$SOCK_B" --batch "$OUT/pairs.txt" \
  | grep -v 'queries/s' >"$OUT/b.answers"
diff -u "$OUT/a.answers" "$OUT/b.answers"
cat "$OUT/a.answers"

echo "== daemon A counts the batch's near and far answers =="
"$TOPOCTL" ping --stats "$SOCK_A" | tee "$OUT/a.stats"
NEAR=$(sed -n 's/^oracle\.near_answers=//p' "$OUT/a.stats")
FAR=$(sed -n 's/^oracle\.far_answers=//p' "$OUT/a.stats")
if [ -z "$NEAR" ] || [ -z "$FAR" ]; then
  echo "serve-smoke: STATS lacks oracle.near_answers/oracle.far_answers" >&2
  exit 1
fi
# Answer lines are "u v d"; 0 is a trivial pair, inf an unreachable one.
ANSWERED=$(awk '!/^#/ && $3 != "0" && $3 != "inf" { c++ } END { print c + 0 }' \
  "$OUT/a.answers")
[ $((NEAR + FAR)) -eq "$ANSWERED" ] || {
  echo "serve-smoke: $NEAR near + $FAR far answers, expected $ANSWERED" >&2
  exit 1
}
echo "serve-smoke: OK"
