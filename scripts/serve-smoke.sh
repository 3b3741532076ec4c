#!/usr/bin/env bash
# serve-smoke.sh — end-to-end smoke of pdxd over plain curl: build pdx,
# start the daemon on an ephemeral port, register the smoke setting,
# POST the corpus instances, check the EXP-EX1 verdicts and the certain
# answers, then SIGTERM and verify a clean drain. A second daemon then
# restarts over the same -snapshot-dir and must serve its first solve
# straight from the persisted chase cache. Run from the repo root; CI
# runs this after the test suite.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/pdx" ./cmd/pdx

"$workdir/pdx" serve -addr 127.0.0.1:0 -snapshot-dir "$workdir/snapshots" \
  >"$workdir/stdout" 2>"$workdir/stderr" &
pid=$!

for _ in $(seq 1 100); do
  grep -q "pdxd listening on " "$workdir/stdout" 2>/dev/null && break
  kill -0 "$pid" 2>/dev/null || { echo "daemon died:"; cat "$workdir/stderr"; exit 1; }
  sleep 0.1
done
base=$(sed -n 's/^pdxd listening on //p' "$workdir/stdout")
[ -n "$base" ] || { echo "no listen banner"; cat "$workdir/stderr"; exit 1; }
echo "daemon at $base"

# json_text FILE — the file's contents as a JSON string literal.
json_text() {
  awk 'BEGIN{printf "\""} {gsub(/\\/,"\\\\"); gsub(/"/,"\\\""); printf "%s\\n", $0} END{printf "\""}' "$1"
}

id=$(curl -sS -X POST "$base/v1/settings" \
  -d "{\"setting\":$(json_text examples/settings/server-smoke.pde)}" |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "registration returned no id"; exit 1; }
echo "registered $id"

check_exists() { # check_exists FACTS_FILE WANT
  local got
  got=$(curl -sS -X POST "$base/v1/exists-solution" \
    -d "{\"setting_id\":\"$id\",\"source\":$(json_text "$1")}" |
    sed -n 's/.*"exists":\(true\|false\).*/\1/p')
  if [ "$got" != "$2" ]; then
    echo "FAIL: $1 -> exists=$got, want $2"
    exit 1
  fi
  echo "ok: $1 -> exists=$got"
}

check_exists examples/corpus/path.facts false
check_exists examples/corpus/selfloop.facts true
check_exists examples/corpus/triangle.facts true

answers=$(curl -sS -X POST "$base/v1/certain-answers" \
  -d "{\"setting_id\":\"$id\",\"source\":$(json_text examples/corpus/triangle.facts),\"query\":$(json_text examples/corpus/queries.cq)}")
case "$answers" in
  *'"answers":[["a","c"]]'*) echo "ok: certain answers = [[a,c]]" ;;
  *) echo "FAIL: certain answers response: $answers"; exit 1 ;;
esac
case "$answers" in
  *'"compiled":true'*) echo "ok: certain answers served by the compiled plan" ;;
  *) echo "FAIL: certain answers did not use the compiled plan: $answers"; exit 1 ;;
esac

# Batch certain answers: two queries in one round trip, both served
# from compiled plans (this setting is in the compilable fragment).
batch=$(curl -sS -X POST "$base/v1/certain-answers/batch" \
  -d "{\"setting_id\":\"$id\",\"source\":$(json_text examples/corpus/triangle.facts),\"queries\":[\"q1(x,y) :- H(x,y)\",\"q2 :- H(x,y)\"]}")
case "$batch" in
  *'"answers":[["a","c"]]'*) ;;
  *) echo "FAIL: batch certain answers response: $batch"; exit 1 ;;
esac
case "$batch" in
  *'"compiled":false'*) echo "FAIL: batch fell back to enumeration: $batch"; exit 1 ;;
  *'"compiled":true'*) echo "ok: batch certain answers compiled, [[a,c]] for q1" ;;
  *) echo "FAIL: batch certain answers response: $batch"; exit 1 ;;
esac
plan_misses=$(curl -sS "$base/metrics" | sed -n 's/^pdxd_plan_cache_misses_total \([0-9]*\)$/\1/p')
[ -n "$plan_misses" ] && [ "$plan_misses" -ge 1 ] || {
  echo "FAIL: plan cache counters missing from /metrics"; exit 1; }
echo "ok: plan cache compiled $plan_misses plan(s)"

# Chased-instance cache: register the path instance, solve twice by ID
# (the repeat must bump the cache-hit counter), append the closing edge,
# and re-solve against the migrated cache entry.
iid=$(curl -sS -X POST "$base/v1/instances" \
  -d "{\"instance\":$(json_text examples/corpus/path.facts)}" |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$iid" ] || { echo "FAIL: instance registration returned no id"; exit 1; }
echo "registered instance $iid"

check_exists_by_id() { # check_exists_by_id INSTANCE_ID WANT
  local got
  got=$(curl -sS -X POST "$base/v1/exists-solution" \
    -d "{\"setting_id\":\"$id\",\"source_id\":\"$1\"}" |
    sed -n 's/.*"exists":\(true\|false\).*/\1/p')
  if [ "$got" != "$2" ]; then
    echo "FAIL: solve by id $1 -> exists=$got, want $2"
    exit 1
  fi
}

cache_hits() {
  curl -sS "$base/metrics" | sed -n 's/^pdxd_chase_cache_hits_total \([0-9]*\)$/\1/p'
}

hits_before=$(cache_hits)
check_exists_by_id "$iid" false
check_exists_by_id "$iid" false
hits_after=$(cache_hits)
[ "$hits_after" -gt "$hits_before" ] || {
  echo "FAIL: cache hit counter did not move ($hits_before -> $hits_after)"; exit 1; }
echo "ok: warm repeat solve hit the chase cache ($hits_before -> $hits_after)"

# check_certain_by_id INSTANCE_ID WANT_EXISTS WANT_ANSWERS — the corpus
# query by instance ID; WANT_ANSWERS is the JSON of the answers field,
# or "none" when the field must be absent. The pair's solve ran first,
# so its compiled plan takes SOL(P) from the cached verdict.
check_certain_by_id() {
  local resp
  resp=$(curl -sS -X POST "$base/v1/certain-answers" \
    -d "{\"setting_id\":\"$id\",\"source_id\":\"$1\",\"query\":$(json_text examples/corpus/queries.cq)}")
  case "$resp" in
    *"\"solution_exists\":$2"*'"compiled":true'*) ;;
    *) echo "FAIL: certain by id $1: want solution_exists=$2, compiled: $resp"; exit 1 ;;
  esac
  case "$3:$resp" in
    none:*'"answers"'*) echo "FAIL: certain by id $1: want no answers: $resp"; exit 1 ;;
    none:*) ;;
    *"\"answers\":$3"*) ;;
    *) echo "FAIL: certain by id $1: want answers $3: $resp"; exit 1 ;;
  esac
  echo "ok: certain by id $1 -> solution_exists=$2, answers=$3"
}

check_certain_by_id "$iid" false none

append=$(curl -sS -X POST "$base/v1/instances/$iid/append" -d '{"facts":"E(a,c)."}')
newid=$(printf '%s' "$append" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
{ [ -n "$newid" ] && [ "$newid" != "$iid" ]; } || {
  echo "FAIL: append response: $append"; exit 1; }
case "$append" in
  *'"resumed":1'*) echo "ok: append migrated the cache entry incrementally" ;;
  *) echo "FAIL: append did not resume the cached chase: $append"; exit 1 ;;
esac
check_exists_by_id "$newid" true
echo "ok: re-solve after append (triangle closed -> solution exists)"
check_certain_by_id "$newid" true '[["a","c"]]'

# One scrape, checked offline: grep -q on a curl pipe trips pipefail
# once the body outgrows the pipe buffer (grep exits at the match,
# curl gets EPIPE).
metrics=$(curl -sS "$base/metrics")
printf '%s\n' "$metrics" | grep -q '^pdxd_registry_settings 1$' || {
  echo "FAIL: metrics missing registry gauge"; exit 1; }
printf '%s\n' "$metrics" | grep -q '^pdxd_chase_cache_resumes_total 1$' || {
  echo "FAIL: metrics missing resume counter"; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "FAIL: daemon exited uncleanly"; cat "$workdir/stderr"; exit 1; }
grep -q '"msg":"drained"' "$workdir/stderr" || { echo "FAIL: no drain log"; exit 1; }

# Warm restart: the drain flushed the write-behind queue, so a second
# daemon over the same -snapshot-dir (with the setting preloaded, since
# snapshots only install for registered settings) must answer its first
# solve-by-id from the restored cache.
ls "$workdir/snapshots"/*.pdxsnap >/dev/null 2>&1 || {
  echo "FAIL: drain left no snapshot files"; exit 1; }

"$workdir/pdx" serve -addr 127.0.0.1:0 -snapshot-dir "$workdir/snapshots" \
  examples/settings/server-smoke.pde >"$workdir/stdout2" 2>"$workdir/stderr2" &
pid=$!
for _ in $(seq 1 100); do
  grep -q "pdxd listening on " "$workdir/stdout2" 2>/dev/null && break
  kill -0 "$pid" 2>/dev/null || { echo "restarted daemon died:"; cat "$workdir/stderr2"; exit 1; }
  sleep 0.1
done
base=$(sed -n 's/^pdxd listening on //p' "$workdir/stdout2")
[ -n "$base" ] || { echo "no listen banner after restart"; cat "$workdir/stderr2"; exit 1; }
echo "restarted daemon at $base"

metrics=$(curl -sS "$base/metrics")
loads=$(printf '%s\n' "$metrics" | sed -n 's/^pdxd_snapshot_loads_total \([0-9]*\)$/\1/p')
[ -n "$loads" ] && [ "$loads" -ge 1 ] || {
  echo "FAIL: restarted daemon loaded no snapshots"; cat "$workdir/stderr2"; exit 1; }
printf '%s\n' "$metrics" | grep -q '^pdxd_snapshot_load_errors_total 0$' || {
  echo "FAIL: restarted daemon rejected snapshots"; cat "$workdir/stderr2"; exit 1; }

# A restored entry is served back under the key /v1/cache/keys lists:
# the cache is keyed by the snapshot key itself.
key=$(curl -sS "$base/v1/cache/keys" | sed -n 's/.*"key":"\([0-9a-f]*\)".*/\1/p')
[ -n "$key" ] || { echo "FAIL: restarted daemon lists no cache keys"; exit 1; }
status=$(curl -sS -o "$workdir/entry" -w '%{http_code}' "$base/v1/cache/entries/$key")
{ [ "$status" = 200 ] && [ -s "$workdir/entry" ]; } || {
  echo "FAIL: GET /v1/cache/entries/$key -> $status, $(wc -c <"$workdir/entry") bytes"; exit 1; }
echo "ok: restored entry $key served back ($(wc -c <"$workdir/entry") bytes)"
warm=$(curl -sS -X POST "$base/v1/exists-solution" \
  -d "{\"setting_id\":\"$id\",\"source_id\":\"$newid\"}")
case "$warm" in
  *'"cache_hit":true'*) echo "ok: first solve after restart was warm ($loads snapshots loaded)" ;;
  *) echo "FAIL: first solve after restart was cold: $warm"; exit 1 ;;
esac

kill -TERM "$pid"
wait "$pid" || { echo "FAIL: restarted daemon exited uncleanly"; cat "$workdir/stderr2"; exit 1; }
echo "serve smoke passed"
