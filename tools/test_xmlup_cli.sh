#!/bin/sh
# End-to-end test for the xmlup CLI: a scripted `ed` session on a
# journaled store, followed by a process restart (every xmlup invocation
# is a fresh process), must recover to the exact same XML and labels; a
# deliberately torn journal tail must recover to the pre-tear state.
set -eu

XMLUP="$1"
# Bundled workload specs; CMake passes the source-tree path, a manual run
# finds them relative to this script.
EXAMPLES="${2:-$(dirname "$0")/../examples/workloads}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

cat > "$WORK/in.xml" <<'EOF'
<library><shelf id="a"><book><title>Iliad</title></book></shelf></library>
EOF

for scheme in ordpath dewey xpath-accelerator; do
  DIR="$WORK/store-$scheme"

  "$XMLUP" init "$DIR" --scheme "$scheme" --xml "$WORK/in.xml" > /dev/null

  # Scripted edit session; --print/--labels capture the in-memory state.
  # Note: in this XPath dialect absolute paths start AT the root element,
  # so the root itself is addressed as '.' and its children as 'shelf'.
  "$XMLUP" ed "$DIR" --print --labels \
    -s '.' -t elem -n shelf \
    -s 'shelf[2]' -t attr -n id -v b \
    -s "//shelf[@id='b']" -t elem -n book \
    -s "//shelf[@id='b']/book" -t elem -n title \
    -s "//shelf[@id='b']/book/title" -t text -v Odyssey \
    -u "shelf[1]/book/title/text()" -v "Iliad (rev)" \
    -i '//book/title' -t comment -v "bought used" \
    -a 'shelf[1]' -t elem -n divider \
    -m 'shelf[1]/book' "//shelf[@id='b']" \
    -r "//shelf[@id='b']/book[2]/title" -v heading \
    > "$WORK/session.txt"
  grep -q '<heading>Iliad (rev)</heading>' "$WORK/session.txt" \
    || fail "$scheme: moved book was not renamed in place"

  # Restart: recover in fresh processes and compare byte for byte.
  "$XMLUP" cat "$DIR" > "$WORK/recovered.txt"
  "$XMLUP" labels "$DIR" >> "$WORK/recovered.txt"
  cmp -s "$WORK/session.txt" "$WORK/recovered.txt" \
    || fail "$scheme: recovered state differs from in-memory session"

  # Crash simulation: add one more edit, tear the journal tail, and check
  # recovery truncates back to the pre-edit state.
  "$XMLUP" cat "$DIR" > "$WORK/before.xml"
  "$XMLUP" ed "$DIR" -s '.' -t elem -n lost > /dev/null
  "$XMLUP" damage "$DIR" --truncate 5 > /dev/null
  # The first recovery after the tear both reports and repairs it, so
  # check info first (later opens see an already-clean journal).
  "$XMLUP" info "$DIR" | grep -q "truncated bytes:    [1-9]" \
    || fail "$scheme: info does not report the truncated tail"
  # The durable-position triple: generation, record count, and the journal
  # offset of the last commit — the offset must equal the (repaired)
  # journal file size, since recovery truncated the torn tail in place.
  COMMIT="$("$XMLUP" info "$DIR" | grep '^last commit:')"
  echo "$COMMIT" | grep -q "gen=[0-9][0-9]* records=[0-9][0-9]* offset=[0-9][0-9]*" \
    || fail "$scheme: info does not print the last-commit triple ($COMMIT)"
  OFFSET="${COMMIT##*offset=}"
  [ "$OFFSET" -eq "$(wc -c < "$(ls "$DIR"/journal-*)")" ] \
    || fail "$scheme: last-commit offset does not match the journal size"
  "$XMLUP" cat "$DIR" > "$WORK/after.xml"
  cmp -s "$WORK/before.xml" "$WORK/after.xml" \
    || fail "$scheme: torn-tail recovery did not drop the partial record"

  # The dropped record's tail is gone for good: the next edit lands after
  # the truncation point and survives.
  "$XMLUP" ed "$DIR" -s '.' -t elem -n annex > /dev/null
  "$XMLUP" cat "$DIR" | grep -q "<annex/>" \
    || fail "$scheme: edit after torn-tail recovery was lost"

  # Checkpoint rolls the journal; the document must be unchanged.
  "$XMLUP" cat "$DIR" > "$WORK/pre_ckpt.xml"
  "$XMLUP" checkpoint "$DIR" > /dev/null
  "$XMLUP" cat "$DIR" > "$WORK/post_ckpt.xml"
  cmp -s "$WORK/pre_ckpt.xml" "$WORK/post_ckpt.xml" \
    || fail "$scheme: checkpoint changed the document"
done

# --- error paths -----------------------------------------------------------
# Every malformed invocation must exit nonzero with a one-line diagnostic
# and leave the store byte-for-byte unchanged: a failing edit script never
# leaves partial journal records behind.

DIR="$WORK/store-errors"
"$XMLUP" init "$DIR" --scheme dewey --xml "$WORK/in.xml" > /dev/null
"$XMLUP" cat "$DIR" > "$WORK/pristine.xml"
JOURNAL_SIZE() { wc -c < "$(ls "$DIR"/journal-*)"; }
SIZE_BEFORE="$(JOURNAL_SIZE)"

expect_error() {
  msg="$1"; shift
  if out="$("$@" 2>&1)"; then
    fail "$msg: expected nonzero exit, got success"
  fi
  [ -n "$out" ] || fail "$msg: no diagnostic printed"
  [ "$(printf '%s\n' "$out" | wc -l)" -eq 1 ] \
    || fail "$msg: diagnostic is not one line: $out"
}

# Malformed XPath.
expect_error "malformed xpath" "$XMLUP" ed "$DIR" -d '///[['
# Unmatched target.
expect_error "unmatched target" "$XMLUP" ed "$DIR" -d '/no/such/node'
# Unknown node type.
expect_error "unknown node type" "$XMLUP" ed "$DIR" -s '.' -t blob -n x
# -u without a value.
expect_error "-u without -v" "$XMLUP" ed "$DIR" -u '/shelf'
# -m with a single operand.
expect_error "-m missing destination" "$XMLUP" ed "$DIR" -m '/shelf'
# -r without the new name.
expect_error "-r without -v" "$XMLUP" ed "$DIR" -r '/shelf'
# -m into the moved subtree itself must be rejected before any mutation.
expect_error "-m into own subtree" "$XMLUP" ed "$DIR" -m '/shelf' '/shelf/book'
# Element insert without a name.
expect_error "elem insert without -n" "$XMLUP" ed "$DIR" -s '.' -t elem
# A script that fails mid-way (first action fine, second unmatched) must
# roll back the first action too: all-or-nothing.
expect_error "mid-script failure" "$XMLUP" ed "$DIR" \
  -s '.' -t elem -n halfway -d '/no/such/node'
"$XMLUP" cat "$DIR" | grep -q "<halfway/>" \
  && fail "mid-script failure left a partial edit applied"

[ "$(JOURNAL_SIZE)" -eq "$SIZE_BEFORE" ] \
  || fail "failed edits grew the journal (partial records persisted)"
"$XMLUP" cat "$DIR" > "$WORK/after-errors.xml"
cmp -s "$WORK/pristine.xml" "$WORK/after-errors.xml" \
  || fail "failed edits changed the recovered document"

# Unknown scheme on init: diagnostic, nonzero exit, nothing created.
expect_error "unknown scheme" "$XMLUP" init "$WORK/store-bogus" --scheme bogus
[ ! -e "$WORK/store-bogus" ] \
  || fail "failed init left a store directory behind"

# --- update scripts (apply) -------------------------------------------------
# Compiled update scripts: comments, `let` bindings, quoted tokens, move
# and rename, applied as one all-or-nothing transaction; compile errors
# exit 2 with a one-line <file>:<line> diagnostic quoting the offending
# token; the remote form ships the same script as a single --apply frame
# (directly, and routed to a corpus document with --doc).

DIR="$WORK/store-apply"
"$XMLUP" init "$DIR" --scheme dewey --xml "$WORK/in.xml" > /dev/null

cat > "$WORK/grow.up" <<'EOF'
# grow a second shelf and restock it
let SHELF = //shelf[@id='b']
-s . -t elem -n shelf
-s shelf[2] -t attr -n id -v b
-s ${SHELF} -t elem -n book
-s ${SHELF}/book -t elem -n title
-s ${SHELF}/book/title -t text -v "Moby Dick"
-m shelf[1]/book ${SHELF}
-r ${SHELF}/book[1]/title -v heading
EOF
"$XMLUP" apply "$DIR" "$WORK/grow.up" --print > "$WORK/apply.out" \
  || fail "apply: script failed"
grep -q '<shelf id="b"><book><heading>Moby Dick</heading></book><book><title>Iliad</title></book></shelf>' \
  "$WORK/apply.out" || fail "apply: script result wrong: $(cat "$WORK/apply.out")"
# Restart: the applied script recovers byte for byte.
"$XMLUP" cat "$DIR" > "$WORK/apply-recovered.xml"
cmp -s "$WORK/apply.out" "$WORK/apply-recovered.xml" \
  || fail "apply: recovered state differs from the in-memory result"

# msg, <file>:<line> needle, quoted-token needle, then the command.
expect_exit2_quoting() {
  msg="$1"; where="$2"; token="$3"; shift 3
  if out="$("$@" 2>&1)"; then
    fail "$msg: expected exit 2, got success"
  else
    code=$?
  fi
  [ "$code" -eq 2 ] || fail "$msg: expected exit 2, got $code"
  [ "$(printf '%s\n' "$out" | wc -l)" -eq 1 ] \
    || fail "$msg: diagnostic is not one line: $out"
  case "$out" in
    *"$where"*) ;;
    *) fail "$msg: diagnostic misses $where: $out" ;;
  esac
  case "$out" in
    *"$token"*) ;;
    *) fail "$msg: diagnostic misses $token: $out" ;;
  esac
}

cat > "$WORK/broken.up" <<'EOF'
# fine line
-u shelf/x/text() -v ok
-z oops
EOF
expect_exit2_quoting "apply: unknown action" "broken.up:3:" '"-z"' \
  "$XMLUP" apply "$DIR" "$WORK/broken.up"
printf -- '-u ${NOPE}/text() -v x\n' > "$WORK/undef.up"
expect_exit2_quoting "apply: undefined variable" "undef.up:1:" '"${NOPE}"' \
  "$XMLUP" apply "$DIR" "$WORK/undef.up"
# A failed compile applies nothing.
"$XMLUP" cat "$DIR" > "$WORK/after-bad-scripts.xml"
cmp -s "$WORK/apply-recovered.xml" "$WORK/after-bad-scripts.xml" \
  || fail "apply: failed scripts changed the store"

# Removed flags are usage errors, not silently accepted. --stdio on an
# empty stdin keeps a regression from hanging.
expect_exit2() {
  msg="$1"; shift
  if "$@" < /dev/null > /dev/null 2>&1; then
    fail "$msg: expected exit 2, got success"
  else
    code=$?
  fi
  [ "$code" -eq 2 ] || fail "$msg: expected exit 2, got $code"
}
expect_exit2 "ed --no-sync" "$XMLUP" ed "$DIR" --no-sync -d shelf
expect_exit2 "serve --apply-workers" \
  "$XMLUP" serve "$DIR" --stdio --apply-workers 4

# Remote form: the same script as one --apply frame.
ASOCK="$WORK/apply.sock"
"$XMLUP" serve "$DIR" --socket "$ASOCK" &
APPLY_PID=$!
i=0
until "$XMLUP" req --socket "$ASOCK" --ping > /dev/null 2>&1; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "apply: server did not come up"
  sleep 0.1
done
cat > "$WORK/remote.up" <<'EOF'
let WING = annex
-s . -t elem -n ${WING}
-s ${WING} -t text -v "via apply"
EOF
"$XMLUP" apply --socket "$ASOCK" "$WORK/remote.up" > "$WORK/remote.out" \
  || fail "apply: remote script failed"
# The reply is the transaction's <matched> and <epoch>, one per line.
[ "$(wc -l < "$WORK/remote.out")" -eq 2 ] \
  || fail "apply: remote reply is not matched+epoch: $(cat "$WORK/remote.out")"
[ "$(head -1 "$WORK/remote.out")" = "2" ] \
  || fail "apply: remote matched count wrong: $(cat "$WORK/remote.out")"
[ "$("$XMLUP" req --socket "$ASOCK" -q '/annex' | head -1)" = "1" ] \
  || fail "apply: remote edit not visible"
# Remote compile errors are caught locally, before any round trip.
expect_exit2_quoting "apply: remote compile error" "broken.up:3:" '"-z"' \
  "$XMLUP" apply --socket "$ASOCK" "$WORK/broken.up"
"$XMLUP" req --socket "$ASOCK" --shutdown > /dev/null \
  || fail "apply: shutdown failed"
wait "$APPLY_PID" || fail "apply: server exited nonzero"
"$XMLUP" cat "$DIR" | grep -q "via apply" \
  || fail "apply: acknowledged remote script lost after shutdown"

# Routed: the identical frame through a corpus service keyed by --doc.
ACSOCK="$WORK/apply-corpus.sock"
"$XMLUP" serve "$WORK/apply-corpus" --corpus --socket "$ACSOCK" &
ACORPUS_PID=$!
i=0
until "$XMLUP" req --socket "$ACSOCK" --ping > /dev/null 2>&1; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "apply: corpus did not come up"
  sleep 0.1
done
"$XMLUP" req --socket "$ACSOCK" --doc alpha --create dewey > /dev/null \
  || fail "apply: corpus create failed"
"$XMLUP" apply --socket "$ACSOCK" --doc alpha "$WORK/remote.up" > /dev/null \
  || fail "apply: routed script failed"
[ "$("$XMLUP" req --socket "$ACSOCK" --doc alpha -q '/annex' | head -1)" = "1" ] \
  || fail "apply: routed edit not visible"
"$XMLUP" req --socket "$ACSOCK" --shutdown > /dev/null \
  || fail "apply: corpus shutdown failed"
wait "$ACORPUS_PID" || fail "apply: corpus exited nonzero"

# --- serve / req -----------------------------------------------------------
# Socket round trip: a server process, edits and queries through the wire
# protocol, clean shutdown, durable state visible to a fresh process.

DIR="$WORK/store-serve"
SOCK="$WORK/serve.sock"
"$XMLUP" init "$DIR" --scheme dewey --xml "$WORK/in.xml" > /dev/null

# serve has no pipeline knobs: each of these is refused as an unknown
# argument, with a one-line diagnostic, before the store is opened.
expect_error "--queue 0" "$XMLUP" serve "$DIR" --socket "$SOCK" --queue 0
expect_error "--batch 0" "$XMLUP" serve "$DIR" --socket "$SOCK" --batch 0
expect_error "bad --queue" "$XMLUP" serve "$DIR" --socket "$SOCK" --queue x

"$XMLUP" serve "$DIR" --socket "$SOCK" &
SERVER_PID=$!

i=0
until "$XMLUP" req --socket "$SOCK" --ping > /dev/null 2>&1; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || fail "serve: server did not come up"
  sleep 0.1
done

"$XMLUP" req --socket "$SOCK" \
  -s '.' -t elem -n wing -a '/shelf[1]' -t comment -v "via socket" \
  > /dev/null || fail "serve: edit request failed"
COUNT="$("$XMLUP" req --socket "$SOCK" -q '/wing' | head -1)"
[ "$COUNT" = "1" ] || fail "serve: query did not see the edit (got $COUNT)"
"$XMLUP" req --socket "$SOCK" --xml | grep -q "via socket" \
  || fail "serve: serialized XML misses the comment"
# Errors come back as err frames -> nonzero exit, server keeps running.
"$XMLUP" req --socket "$SOCK" -d '/no/such/node' > /dev/null 2>&1 \
  && fail "serve: unmatched delete reported success"
"$XMLUP" req --socket "$SOCK" --ping > /dev/null \
  || fail "serve: server died after a failed request"
# A frame is one all-or-nothing transaction, exactly like an ed script:
# the first action must not survive the second action's failure.
"$XMLUP" req --socket "$SOCK" \
  -s '.' -t elem -n orphan -d '/no/such/node' > /dev/null 2>&1 \
  && fail "serve: partial frame reported success"
COUNT="$("$XMLUP" req --socket "$SOCK" -q '/orphan' | head -1)"
[ "$COUNT" = "0" ] || fail "serve: failed frame left a partial edit applied"

"$XMLUP" req --socket "$SOCK" --shutdown > /dev/null \
  || fail "serve: shutdown request failed"
wait "$SERVER_PID" || fail "serve: server exited nonzero"

# Acknowledged socket edits survive the restart.
"$XMLUP" cat "$DIR" | grep -q "<wing/>" \
  || fail "serve: acknowledged edit lost after shutdown"

# --- replication -----------------------------------------------------------
# Primary + replica over two sockets: the replica bootstraps with a
# snapshot, tails live edits, serves reads, rejects writes, and leaves a
# normal store directory behind that a fresh process can `cat`.

PRIMARY_DIR="$WORK/store-primary"
REPLICA_DIR="$WORK/store-replica"
PSOCK="$WORK/primary.sock"
RSOCK="$WORK/replica.sock"
"$XMLUP" init "$PRIMARY_DIR" --scheme ordpath --xml "$WORK/in.xml" > /dev/null

"$XMLUP" serve "$PRIMARY_DIR" --socket "$PSOCK" &
PRIMARY_PID=$!
i=0
until "$XMLUP" req --socket "$PSOCK" --ping > /dev/null 2>&1; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "repl: primary did not come up"
  sleep 0.1
done

# History before the replica exists, so bootstrap is a snapshot transfer.
"$XMLUP" req --socket "$PSOCK" -s '.' -t elem -n archive > /dev/null \
  || fail "repl: primary edit failed"

"$XMLUP" serve "$REPLICA_DIR" --socket "$RSOCK" --replicate-from "$PSOCK" &
REPLICA_PID=$!
i=0
until "$XMLUP" req --socket "$RSOCK" --ping > /dev/null 2>&1; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "repl: replica did not come up"
  sleep 0.1
done

# A live edit after the replica subscribed, then wait for it to arrive.
"$XMLUP" req --socket "$PSOCK" -s '.' -t elem -n fresh > /dev/null \
  || fail "repl: live edit failed"
i=0
until [ "$("$XMLUP" req --socket "$RSOCK" -q '/fresh' 2>/dev/null | head -1)" = "1" ]; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "repl: replica never saw the live edit"
  sleep 0.1
done

# Replica reads match the primary byte for byte.
"$XMLUP" req --socket "$PSOCK" --xml > "$WORK/primary.xml"
"$XMLUP" req --socket "$RSOCK" --xml > "$WORK/replica.xml"
cmp -s "$WORK/primary.xml" "$WORK/replica.xml" \
  || fail "repl: replica XML differs from primary"

# Writes are for the primary only.
"$XMLUP" req --socket "$RSOCK" -s '.' -t elem -n rogue > /dev/null 2>&1 \
  && fail "repl: replica accepted a write"

# Both roles answer repl-status with their role and zero replica lag.
"$XMLUP" repl-status --socket "$PSOCK" | grep -q "role=primary" \
  || fail "repl: primary repl-status misses role=primary"
# The commit-point marker trails the frames by one message, so give the
# lag gauge a moment to hit zero.
i=0
while :; do
  "$XMLUP" repl-status --socket "$RSOCK" > "$WORK/rstatus.txt"
  grep -q "role=replica" "$WORK/rstatus.txt" \
    || fail "repl: replica repl-status misses role=replica"
  grep -q "lag_bytes=0" "$WORK/rstatus.txt" && break
  i=$((i + 1))
  [ "$i" -lt 100 ] \
    || fail "repl: replica still lagging at quiesce: $(cat "$WORK/rstatus.txt")"
  sleep 0.1
done

"$XMLUP" req --socket "$RSOCK" --shutdown > /dev/null \
  || fail "repl: replica shutdown failed"
wait "$REPLICA_PID" || fail "repl: replica exited nonzero"
"$XMLUP" req --socket "$PSOCK" --shutdown > /dev/null \
  || fail "repl: primary shutdown failed"
wait "$PRIMARY_PID" || fail "repl: primary exited nonzero"

# The replica directory is a plain store: recovery reads it directly.
"$XMLUP" cat "$REPLICA_DIR" | grep -q "<fresh/>" \
  || fail "repl: replica store directory does not recover the edits"

# --- workload --------------------------------------------------------------
# Declarative workload engine round trip: every bundled spec validates,
# malformed specs are rejected with exit 2 and a one-line spec-quoting
# diagnostic, and a run against a live server is bit-reproducible (same
# spec + seed + threads -> byte-identical client-side trace).

for spec in "$EXAMPLES"/*.workload; do
  [ -f "$spec" ] || fail "workload: no bundled specs found in $EXAMPLES"
  "$XMLUP" workload check "$spec" > /dev/null \
    || fail "workload: bundled spec $spec does not validate"
done

expect_exit2() {
  msg="$1"; shift
  if out="$("$@" 2>&1)"; then
    fail "$msg: expected exit 2, got success"
  else
    code=$?
  fi
  [ "$code" -eq 2 ] || fail "$msg: expected exit 2, got $code"
  [ "$(printf '%s\n' "$out" | wc -l)" -eq 1 ] \
    || fail "$msg: diagnostic is not one line: $out"
  echo "$out" | grep -q 'spec line' \
    || fail "$msg: diagnostic does not quote the spec: $out"
}

printf 'node a blob\n  next finish\n' > "$WORK/bad.workload"
expect_exit2 "workload: unknown node type" \
  "$XMLUP" workload check "$WORK/bad.workload"
printf 'node a query\n  xpath //x\n  next nowhere\n' > "$WORK/bad.workload"
expect_exit2 "workload: dangling next" \
  "$XMLUP" workload check "$WORK/bad.workload"
printf 'node a random-choice\n  choice 0 a\n' > "$WORK/bad.workload"
expect_exit2 "workload: zero weights" \
  "$XMLUP" workload check "$WORK/bad.workload"
printf 'node a query\n  xpath //x\n  next a\n' > "$WORK/bad.workload"
expect_exit2 "workload: unreachable finish" \
  "$XMLUP" workload check "$WORK/bad.workload"

cat > "$WORK/mix.workload" <<'EOF'
workload cli-mix
node turn for-n
  count 1000000
  do pick
  next finish
node pick random-choice
  choice 70 grow
  choice 30 look
node grow edit
  script -s . -t elem -n g${thread}x${op}r${rand:31}
  next end
node look query
  xpath //g${thread}x${rand:6}r${rand:31}
  next end
EOF
"$XMLUP" workload check "$WORK/mix.workload" > /dev/null \
  || fail "workload: inline mix spec does not validate"

WLDIR="$WORK/store-workload"
WLSOCK="$WORK/wl.sock"
"$XMLUP" init "$WLDIR" --scheme ordpath > /dev/null
"$XMLUP" serve "$WLDIR" --socket "$WLSOCK" &
WL_PID=$!
i=0
until "$XMLUP" req --socket "$WLSOCK" --ping > /dev/null 2>&1; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "workload: server did not come up"
  sleep 0.1
done

# --ops and --duration are mutually exclusive, rejected before any traffic.
code=0
"$XMLUP" workload run "$WORK/mix.workload" --target "$WLSOCK" \
  --ops 5 --duration 100 > /dev/null 2>&1 || code=$?
[ "$code" -eq 2 ] || fail "workload: --ops with --duration not rejected"

"$XMLUP" workload run "$WORK/mix.workload" --target "$WLSOCK" \
  --threads 2 --seed 11 --ops 15 \
  --out "$WORK/run1.json" --trace "$WORK/run1.trace" > "$WORK/run1.out" \
  || fail "workload: run against serve failed"
grep -q "^ops=30 errors=0 " "$WORK/run1.out" \
  || fail "workload: totals line wrong: $(cat "$WORK/run1.out")"
grep -q '"errors_total": 0' "$WORK/run1.json" \
  || fail "workload: JSON reports errors"
grep -q '"p99_ns"' "$WORK/run1.json" \
  || fail "workload: JSON misses per-node percentiles"

# Same seed, fresh server-side names are re-inserted (they already exist
# now, but inserts still succeed), trace must be byte-identical.
"$XMLUP" workload run "$WORK/mix.workload" --target "$WLSOCK" \
  --threads 2 --seed 11 --ops 15 \
  --out "$WORK/run2.json" --trace "$WORK/run2.trace" > /dev/null \
  || fail "workload: second run failed"
cmp -s "$WORK/run1.trace" "$WORK/run2.trace" \
  || fail "workload: same seed produced different traces"

"$XMLUP" req --socket "$WLSOCK" --shutdown > /dev/null \
  || fail "workload: shutdown failed"
wait "$WL_PID" || fail "workload: server exited nonzero"

# --- failover (manual promote) ---------------------------------------------
# The scripted failover round trip: a sync-replicated primary/replica
# pair, kill -9 the primary, `xmlup promote` the replica into a primary
# over the same directory, write through it, then rejoin the old primary
# as a replica of the new one and prove bit-identical convergence.

FP_DIR="$WORK/store-fo-primary"
FR_DIR="$WORK/store-fo-replica"
FPSOCK="$WORK/fo-primary.sock"
FRSOCK="$WORK/fo-replica.sock"
"$XMLUP" init "$FP_DIR" --scheme ordpath --xml "$WORK/in.xml" > /dev/null

"$XMLUP" serve "$FP_DIR" --socket "$FPSOCK" --sync-repl &
FP_PID=$!
i=0
until "$XMLUP" req --socket "$FPSOCK" --ping > /dev/null 2>&1; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "failover: primary did not come up"
  sleep 0.1
done
"$XMLUP" req --socket "$FPSOCK" -s '.' -t elem -n durable > /dev/null \
  || fail "failover: primary edit failed"

"$XMLUP" serve "$FR_DIR" --socket "$FRSOCK" --replicate-from "$FPSOCK" &
FR_PID=$!
i=0
until [ "$("$XMLUP" req --socket "$FRSOCK" -q '/durable' 2>/dev/null | head -1)" = "1" ]; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "failover: replica never caught up"
  sleep 0.1
done

# A write acknowledged under sync replication, then the crash.
"$XMLUP" req --socket "$FPSOCK" -s '.' -t elem -n acked_before_crash \
  > /dev/null || fail "failover: acked write failed"
i=0
until [ "$("$XMLUP" req --socket "$FRSOCK" -q '/acked_before_crash' 2>/dev/null | head -1)" = "1" ]; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "failover: acked write never shipped"
  sleep 0.1
done
kill -9 "$FP_PID"
wait "$FP_PID" 2>/dev/null || true

# Promote: replica -> primary over the same store directory.
"$XMLUP" promote --socket "$FRSOCK" > "$WORK/promote.out" \
  || fail "failover: promote failed: $(cat "$WORK/promote.out")"
grep -q "^promoted$" "$WORK/promote.out" \
  || fail "failover: promote reply misses 'promoted': $(cat "$WORK/promote.out")"
grep -q "^fence=" "$WORK/promote.out" \
  || fail "failover: promote reply misses the fence epoch"
# Idempotent: a second promote reports the standing fence.
"$XMLUP" promote --socket "$FRSOCK" | grep -q "already-primary" \
  || fail "failover: repeated promote is not idempotent"

# The role flipped (replica -> primary) and writes now land here.
"$XMLUP" repl-status --socket "$FRSOCK" | grep -q "role=primary" \
  || fail "failover: promoted node does not report role=primary"
"$XMLUP" req --socket "$FRSOCK" -s '.' -t elem -n after_failover \
  > /dev/null || fail "failover: promoted node rejected a write"
[ "$("$XMLUP" req --socket "$FRSOCK" -q '/acked_before_crash' | head -1)" = "1" ] \
  || fail "failover: acked write lost across the promotion"

# The old primary rejoins as a replica of the new primary (role
# primary -> replica) and converges on the post-failover history.
"$XMLUP" serve "$FP_DIR" --socket "$FPSOCK" --replicate-from "$FRSOCK" &
FP_PID=$!
i=0
until [ "$("$XMLUP" req --socket "$FPSOCK" -q '/after_failover' 2>/dev/null | head -1)" = "1" ]; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "failover: rejoined primary never converged"
  sleep 0.1
done
"$XMLUP" repl-status --socket "$FPSOCK" | grep -q "role=replica" \
  || fail "failover: rejoined old primary does not report role=replica"
"$XMLUP" req --socket "$FRSOCK" --xml > "$WORK/new-primary.xml"
"$XMLUP" req --socket "$FPSOCK" --xml > "$WORK/rejoined.xml"
cmp -s "$WORK/new-primary.xml" "$WORK/rejoined.xml" \
  || fail "failover: rejoined replica XML differs from the new primary"

"$XMLUP" req --socket "$FPSOCK" --shutdown > /dev/null \
  || fail "failover: rejoined replica shutdown failed"
wait "$FP_PID" || fail "failover: rejoined replica exited nonzero"
"$XMLUP" req --socket "$FRSOCK" --shutdown > /dev/null \
  || fail "failover: promoted primary shutdown failed"
wait "$FR_PID" || fail "failover: promoted primary exited nonzero"

# --- failover (corpus roles via cluster-status) -----------------------------
# The same promotion on one document of a corpus, watched through
# cluster-status docrole fields: primary corpus dies, `xmlup promote
# --doc` flips the replica corpus's copy, and the restarted old corpus
# rejoins replica-role — primary -> replica -> primary across the pair.

CP_DIR="$WORK/corpus-fo-primary"
CR_DIR="$WORK/corpus-fo-replica"
CPSOCK="$WORK/corpus-fo-p.sock"
CRSOCK="$WORK/corpus-fo-r.sock"

"$XMLUP" serve "$CP_DIR" --corpus --socket "$CPSOCK" --sync-repl &
CP_PID=$!
i=0
until "$XMLUP" req --socket "$CPSOCK" --ping > /dev/null 2>&1; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "failover: corpus primary did not come up"
  sleep 0.1
done
"$XMLUP" req --socket "$CPSOCK" --doc alpha --create ordpath > /dev/null \
  || fail "failover: corpus create failed"
"$XMLUP" req --socket "$CPSOCK" --doc alpha -s '.' -t elem -n seed \
  > /dev/null || fail "failover: corpus edit failed"
"$XMLUP" cluster-status --socket "$CPSOCK" | grep -q "docrole.alpha=primary" \
  || fail "failover: corpus primary does not report docrole.alpha=primary"

"$XMLUP" serve "$CR_DIR" --corpus --socket "$CRSOCK" \
  --replicate-from "$CPSOCK" --sync-repl &
CR_PID=$!
i=0
until [ "$("$XMLUP" req --socket "$CRSOCK" --doc alpha -q '/seed' 2>/dev/null | head -1)" = "1" ]; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "failover: corpus replica never caught up"
  sleep 0.1
done
"$XMLUP" cluster-status --socket "$CRSOCK" | grep -q "docrole.alpha=replica" \
  || fail "failover: corpus replica does not report docrole.alpha=replica"

kill -9 "$CP_PID"
wait "$CP_PID" 2>/dev/null || true

"$XMLUP" promote --socket "$CRSOCK" --doc alpha --epoch 7 > "$WORK/cpromote.out" \
  || fail "failover: corpus promote failed: $(cat "$WORK/cpromote.out")"
grep -q "^fence=7$" "$WORK/cpromote.out" \
  || fail "failover: corpus promote ignored --epoch 7: $(cat "$WORK/cpromote.out")"
"$XMLUP" cluster-status --socket "$CRSOCK" > "$WORK/cstatus.txt"
grep -q "docrole.alpha=primary" "$WORK/cstatus.txt" \
  || fail "failover: promoted corpus doc is not primary-role: $(cat "$WORK/cstatus.txt")"
grep -q "docfence.alpha=7" "$WORK/cstatus.txt" \
  || fail "failover: promoted corpus doc fence is not 7: $(cat "$WORK/cstatus.txt")"
"$XMLUP" req --socket "$CRSOCK" --doc alpha -s '.' -t elem -n regrown \
  > /dev/null || fail "failover: promoted corpus doc rejected a write"

# Old corpus primary rejoins as a replica corpus of the promoted one.
"$XMLUP" serve "$CP_DIR" --corpus --socket "$CPSOCK" \
  --replicate-from "$CRSOCK" &
CP_PID=$!
i=0
until [ "$("$XMLUP" req --socket "$CPSOCK" --doc alpha -q '/regrown' 2>/dev/null | head -1)" = "1" ]; do
  i=$((i + 1)); [ "$i" -lt 100 ] || fail "failover: rejoined corpus never converged"
  sleep 0.1
done
"$XMLUP" cluster-status --socket "$CPSOCK" | grep -q "docrole.alpha=replica" \
  || fail "failover: rejoined corpus doc is not replica-role"

"$XMLUP" req --socket "$CPSOCK" --shutdown > /dev/null \
  || fail "failover: rejoined corpus shutdown failed"
wait "$CP_PID" || fail "failover: rejoined corpus exited nonzero"
"$XMLUP" req --socket "$CRSOCK" --shutdown > /dev/null \
  || fail "failover: promoted corpus shutdown failed"
wait "$CR_PID" || fail "failover: promoted corpus exited nonzero"

echo "PASS"
