#!/usr/bin/env bash
# cluster-smoke.sh — end-to-end smoke of a 3-shard pdxd cluster: build
# pdx, start three daemons peered over loopback, register the smoke
# setting on shard 1 (broadcast to the fleet), solve through a
# non-owner shard and assert the ring routed it by ID (exactly one
# owner compute fleet-wide, a proxied hit on the caller, no owner
# miss), kill the owner and assert correct answers after the
# rebalance, restart it and assert the surviving holder hands the cache
# entry home over the snapshot wire format, then restart it once more
# and assert the first by-ID solve registers the instance on the owner
# and the next one travels by ID. Run from the repo root; CI runs this
# after the test suite.
set -euo pipefail

workdir=$(mktemp -d)
pids=()
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/pdx" ./cmd/pdx

# Three shards need to know each other's URLs before any of them binds,
# so ephemeral :0 ports are out: probe for three free fixed ports and
# retry the whole launch on a lost race.
port_free() { ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; }

start_shard() { # start_shard N  (writes pid into pids[N-1])
  local n="$1"
  "$workdir/pdx" serve -addr "127.0.0.1:${ports[n-1]}" \
    -cluster-self "${urls[n-1]}" -cluster-peers "$peerlist" \
    -cluster-probe 100ms \
    >"$workdir/out$n" 2>"$workdir/err$n" &
  pids[n-1]=$!
}

wait_banner() { # wait_banner N
  local n="$1"
  for _ in $(seq 1 100); do
    grep -q "pdxd listening on " "$workdir/out$n" 2>/dev/null && return 0
    kill -0 "${pids[n-1]}" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

launched=false
for _ in $(seq 1 10); do
  base_port=$((20000 + RANDOM % 30000))
  ports=($base_port $((base_port + 1)) $((base_port + 2)))
  ok=true
  for p in "${ports[@]}"; do port_free "$p" || ok=false; done
  $ok || continue
  urls=()
  for p in "${ports[@]}"; do urls+=("http://127.0.0.1:$p"); done
  peerlist=$(IFS=,; echo "${urls[*]}")
  for n in 1 2 3; do start_shard "$n"; done
  ok=true
  for n in 1 2 3; do wait_banner "$n" || ok=false; done
  if $ok; then launched=true; break; fi
  kill "${pids[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
  pids=()
done
$launched || { echo "FAIL: could not launch the fleet"; cat "$workdir"/err* 2>/dev/null; exit 1; }
echo "fleet at ${urls[*]}"

metric() { # metric BASE NAME -> value (0 when absent)
  local v
  v=$(curl -sS "$1/metrics" | sed -n "s/^$2 \([0-9]*\)\$/\1/p")
  echo "${v:-0}"
}

wait_metric() { # wait_metric BASE NAME WANT
  for _ in $(seq 1 100); do
    [ "$(metric "$1" "$2")" = "$3" ] && return 0
    sleep 0.1
  done
  echo "FAIL: $1 $2 never reached $3 (at $(metric "$1" "$2"))"
  return 1
}

for u in "${urls[@]}"; do wait_metric "$u" pdxd_cluster_peers_alive 3; done
echo "ok: every shard sees 3 live members"

# json_text FILE — the file's contents as a JSON string literal.
json_text() {
  awk 'BEGIN{printf "\""} {gsub(/\\/,"\\\\"); gsub(/"/,"\\\""); printf "%s\\n", $0} END{printf "\""}' "$1"
}

id=$(curl -sS -X POST "${urls[0]}/v1/settings" \
  -d "{\"setting\":$(json_text examples/settings/server-smoke.pde)}" |
  sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "FAIL: registration returned no id"; exit 1; }
echo "registered $id on shard 1"

# The broadcast is synchronous: every shard already has the setting.
for u in "${urls[@]}"; do
  curl -sS "$u/v1/settings" | grep -q "$id" || {
    echo "FAIL: $u missed the registration broadcast"; exit 1; }
done
echo "ok: registration broadcast reached the fleet"

# Register the instance everywhere (content-addressed, same ID), so any
# shard accepts a solve-by-id for it.
iid=""
for u in "${urls[@]}"; do
  iid=$(curl -sS -X POST "$u/v1/instances" \
    -d "{\"instance\":$(json_text examples/corpus/triangle.facts)}" |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
  [ -n "$iid" ] || { echo "FAIL: instance registration on $u"; exit 1; }
done

owner=$("$workdir/pdx" cluster-status -addr "${urls[0]}" \
  -setting-id "$id" -source-id "$iid" -owner-only)
echo "owner of ($id, $iid) is $owner"
caller="" owner_n=0
for n in 1 2 3; do
  if [ "${urls[n-1]}" = "$owner" ]; then owner_n=$n; else caller=${caller:-${urls[n-1]}}; fi
done
[ "$owner_n" != 0 ] || { echo "FAIL: owner $owner is not a fleet member"; exit 1; }

got=$(curl -sS -X POST "$caller/v1/exists-solution" \
  -d "{\"setting_id\":\"$id\",\"source_id\":\"$iid\"}" |
  sed -n 's/.*"exists":\(true\|false\).*/\1/p')
[ "$got" = true ] || { echo "FAIL: triangle solve via non-owner -> exists=$got"; exit 1; }

# Exactly one chase fleet-wide, attributed to the owner; the caller
# proxied rather than computing.
computes=0
for u in "${urls[@]}"; do computes=$((computes + $(metric "$u" pdxd_cluster_owner_computes_total))); done
[ "$computes" = 1 ] || { echo "FAIL: fleet ran $computes chases, want 1"; exit 1; }
[ "$(metric "$owner" pdxd_cluster_owner_computes_total)" = 1 ] || {
  echo "FAIL: the one chase did not run on the owner"; exit 1; }
[ "$(metric "$caller" pdxd_cluster_proxied_total)" = 1 ] || {
  echo "FAIL: caller did not proxy the solve"; exit 1; }
# The owner holds the instance, so the solve crossed the hop by ID.
[ "$(metric "$caller" pdxd_cluster_proxy_inlined_total)" = 0 ] || {
  echo "FAIL: caller counted an owner miss for a held ID"; exit 1; }
echo "ok: one owner compute, one proxied hit, by ID"

# Kill the owner. Survivors drop it from the ring and the same request
# still answers correctly — recomputed once by the key's new owner.
kill -TERM "${pids[owner_n-1]}"
wait "${pids[owner_n-1]}" 2>/dev/null || true
survivors=()
for n in 1 2 3; do [ "$n" != "$owner_n" ] && survivors+=("${urls[n-1]}"); done
for u in "${survivors[@]}"; do wait_metric "$u" pdxd_cluster_peers_alive 2; done
echo "ok: survivors see the owner dead"

for u in "${survivors[@]}"; do
  got=$(curl -sS -X POST "$u/v1/exists-solution" \
    -d "{\"setting_id\":\"$id\",\"source_id\":\"$iid\"}" |
    sed -n 's/.*"exists":\(true\|false\).*/\1/p')
  [ "$got" = true ] || { echo "FAIL: post-kill solve via $u -> exists=$got"; exit 1; }
done
computes=0
for u in "${survivors[@]}"; do computes=$((computes + $(metric "$u" pdxd_cluster_owner_computes_total))); done
[ "$computes" = 1 ] || { echo "FAIL: survivors ran $computes chases after failover, want 1"; exit 1; }
echo "ok: correct answers after rebalance, exactly one recompute"

# Restart the dead shard cold. Once probed alive, the keys it owns flow
# home: the surviving holder pushes the entry over the snapshot wire
# format (healing the fresh shard's empty registry along the way).
start_shard "$owner_n"
wait_banner "$owner_n" || { echo "FAIL: restarted shard died"; cat "$workdir/err$owner_n"; exit 1; }
for u in "${urls[@]}"; do wait_metric "$u" pdxd_cluster_peers_alive 3; done

for _ in $(seq 1 100); do
  [ "$(metric "$owner" pdxd_snapshot_warm_transfers_total)" -ge 1 ] && break
  sleep 0.1
done
handoffs=0
for u in "${survivors[@]}"; do handoffs=$((handoffs + $(metric "$u" pdxd_cluster_handoffs_total))); done
[ "$handoffs" -ge 1 ] || { echo "FAIL: no survivor recorded a handoff"; exit 1; }
[ "$(metric "$owner" pdxd_snapshot_warm_transfers_total)" -ge 1 ] || {
  echo "FAIL: restarted shard installed no handoff"; exit 1; }
ringchanges=$(metric "${survivors[0]}" pdxd_cluster_ring_changes_total)
[ "$ringchanges" -ge 2 ] || { echo "FAIL: ring change counter at $ringchanges, want >= 2"; exit 1; }
echo "ok: handoff flowed home after the restart ($handoffs pushed)"

# The restarted owner serves the identity straight from the handed-off
# entry: cache hit, no new chase anywhere.
warm=$(curl -sS -X POST "$owner/v1/exists-solution" \
  -d "{\"setting_id\":\"$id\",\"source_id\":\"$iid\"}")
case "$warm" in
  *'"exists":true'*'"cache_hit":true'* | *'"cache_hit":true'*'"exists":true'*) ;;
  *) echo "FAIL: post-handoff solve was cold or wrong: $warm"; exit 1 ;;
esac
[ "$(metric "$owner" pdxd_cluster_owner_computes_total)" = 0 ] || {
  echo "FAIL: restarted owner re-chased a handed-off entry"; exit 1; }
echo "ok: restarted owner answers warm from the handoff"

# Restart the owner once more. Nothing is left to hand home, so it comes
# back with empty registries: the first by-ID solve through a survivor
# finds the instance missing on the owner and registers it there; the
# second crosses the hop by ID.
kill -TERM "${pids[owner_n-1]}"
wait "${pids[owner_n-1]}" 2>/dev/null || true
for u in "${survivors[@]}"; do wait_metric "$u" pdxd_cluster_peers_alive 2; done
start_shard "$owner_n"
wait_banner "$owner_n" || { echo "FAIL: restarted shard died"; cat "$workdir/err$owner_n"; exit 1; }
for u in "${urls[@]}"; do wait_metric "$u" pdxd_cluster_peers_alive 3; done
[ "$(metric "$owner" pdxd_instances)" = 0 ] || {
  echo "FAIL: restarted owner already holds an instance"; exit 1; }
for round in 1 2; do
  got=$(curl -sS -X POST "${survivors[0]}/v1/exists-solution" \
    -d "{\"setting_id\":\"$id\",\"source_id\":\"$iid\"}" |
    sed -n 's/.*"exists":\(true\|false\).*/\1/p')
  [ "$got" = true ] || { echo "FAIL: by-ID solve $round via ${survivors[0]} after the restart -> exists=$got"; exit 1; }
  [ "$(metric "${survivors[0]}" pdxd_cluster_proxy_inlined_total)" = 1 ] || {
    echo "FAIL: after solve $round the survivor did not count exactly one owner miss"; exit 1; }
done
[ "$(metric "$owner" pdxd_instances)" = 1 ] || {
  echo "FAIL: the owner miss did not register the instance on the owner"; exit 1; }
echo "ok: owner lacking the instance gets it registered once, then answers by ID"

for n in 1 2 3; do kill -TERM "${pids[n-1]}" 2>/dev/null || true; done
echo "cluster smoke passed"
