#!/usr/bin/env bash
# Fleet-mode smoke test for dtserve: lease-based job failover over a
# shared directory.
#
# Scenario: two dtserve replicas share one -fleet-dir. A sampling job is
# submitted to one replica; whichever replica claims the lease is killed
# with SIGKILL mid-campaign (no shutdown path — heartbeats just stop).
# After the lease TTL the survivor must take the job over, resume it
# from the dead owner's last shared REWL checkpoint, and commit a DOS
# artifact that is byte-identical to an uninterrupted single-replica run
# of the same spec.
#
# Usage: scripts/fleet_smoke.sh
# Exits nonzero on any mismatch or timeout.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

log() { echo "fleet-smoke: $*"; }
fail() { echo "fleet-smoke: FAIL: $*" >&2; exit 1; }

# jfield JSON KEY — extract a flat string field ("key": "value").
jfield() {
    grep -o "\"$2\": *\"[^\"]*\"" <<<"$1" | head -1 | sed 's/.*: *"//; s/"$//'
}

# wait_http URL SECONDS — poll until the endpoint answers 2xx.
wait_http() {
    local url="$1" deadline=$((SECONDS + $2))
    until curl -fsS "$url" >/dev/null 2>&1; do
        ((SECONDS < deadline)) || fail "timed out waiting for $url"
        sleep 0.2
    done
}

# wait_done BASE JOB SECONDS — poll a job until done; fail on failed/cancelled.
wait_done() {
    local base="$1" job="$2" deadline=$((SECONDS + $3)) body
    while :; do
        body=$(curl -fsS "$base/v1/jobs/$job" 2>/dev/null || true)
        grep -q '"state": *"done"' <<<"$body" && return 0
        grep -Eq '"state": *"(failed|cancelled)"' <<<"$body" &&
            fail "job $job ended badly: $body"
        ((SECONDS < deadline)) || fail "timed out waiting for job $job on $base"
        sleep 0.5
    done
}

# A seeded spec long enough (lnf_final 1e-6) to survive until the kill
# lands, checkpointing every round so the survivor always has a recent
# shared checkpoint to resume from.
spec='{"type":"sample","system":{"cells":2,"seed":3},"dos":{"windows":2,"bins":16,"lnf_final":1e-6,"no_dl":true,"checkpoint_every":1}}'

log "building dtserve"
go build -o "$tmp/dtserve" ./cmd/dtserve

# --- Reference: the same spec, one replica, never interrupted --------------

ref_base="http://127.0.0.1:18080"
"$tmp/dtserve" -addr 127.0.0.1:18080 -workers 1 >"$tmp/ref.log" 2>&1 &
refpid=$!; pids+=("$refpid")
wait_http "$ref_base/healthz" 20

resp=$(curl -fsS -X POST "$ref_base/v1/jobs" -d "$spec")
refjob=$(jfield "$resp" id)
[[ -n "$refjob" ]] || fail "no job id in submit response: $resp"
log "reference job $refjob running"
wait_done "$ref_base" "$refjob" 240

refdos=$(jfield "$(curl -fsS "$ref_base/v1/jobs/$refjob")" dos_artifact)
[[ -n "$refdos" ]] || fail "reference job has no dos_artifact"
curl -fsS "$ref_base/v1/artifacts/$refdos/data" -o "$tmp/ref.dos"
kill -9 "$refpid" 2>/dev/null || true
ref_sum=$(sha256sum "$tmp/ref.dos" | cut -d' ' -f1)
log "reference DOS $refdos sha256=$ref_sum"

# --- Fleet: two replicas, one shared dir, SIGKILL the lease owner ----------

mkdir "$tmp/fleet"
declare -A base pid
for r in ra rb; do
    p=$((18081 + $([ "$r" = rb ] && echo 1 || echo 0)))
    base[$r]="http://127.0.0.1:$p"
    "$tmp/dtserve" -addr "127.0.0.1:$p" -workers 1 \
        -fleet-dir "$tmp/fleet" -replica-id "$r" \
        -lease-ttl 2s -lease-heartbeat 500ms >"$tmp/$r.log" 2>&1 &
    pid[$r]=$!; pids+=("${pid[$r]}")
done
wait_http "${base[ra]}/healthz" 20
wait_http "${base[rb]}/healthz" 20

resp=$(curl -fsS -X POST "${base[ra]}/v1/jobs" -d "$spec")
job=$(jfield "$resp" id)
[[ -n "$job" ]] || fail "no job id in fleet submit response: $resp"
log "fleet job $job enqueued via ra"

# Either replica may win the claim race — find the lease owner via metrics.
owner="" deadline=$((SECONDS + 30))
while [[ -z "$owner" ]]; do
    for r in ra rb; do
        if curl -fsS "${base[$r]}/metrics" 2>/dev/null |
            grep -q '^dtserve_fleet_leases_held 1'; then
            owner=$r
        fi
    done
    ((SECONDS < deadline)) || fail "no replica claimed the job"
    [[ -n "$owner" ]] || sleep 0.2
done
survivor=$([ "$owner" = ra ] && echo rb || echo ra)
log "replica $owner owns the lease; $survivor will survive"

# The survivor can only resume from a checkpoint that reached the shared
# dir before the crash: the first world round file (rewl-round<n>.ckpt,
# written atomically by the run's leader).
ckpt="$tmp/fleet/checkpoints/$job"
deadline=$((SECONDS + 60))
until compgen -G "$ckpt/rewl-round*.ckpt" >/dev/null; do
    ((SECONDS < deadline)) || fail "no shared checkpoint round appeared in $ckpt"
    sleep 0.1
done

log "killing lease owner $owner (pid ${pid[$owner]}) mid-campaign"
kill -9 "${pid[$owner]}"
{ wait "${pid[$owner]}" || true; } 2>/dev/null

wait_done "${base[$survivor]}" "$job" 240
final=$(curl -fsS "${base[$survivor]}/v1/jobs/$job")
grep -q '"resumed": *true' <<<"$final" ||
    fail "taken-over job did not resume from the checkpoint: $final"
curl -fsS "${base[$survivor]}/metrics" |
    grep -q '^dtserve_fleet_takeovers_total [1-9]' ||
    fail "survivor finished the job without recording a takeover"

dos=$(jfield "$final" dos_artifact)
[[ -n "$dos" ]] || fail "taken-over job has no dos_artifact: $final"
curl -fsS "${base[$survivor]}/v1/artifacts/$dos/data" -o "$tmp/got.dos"
got_sum=$(sha256sum "$tmp/got.dos" | cut -d' ' -f1)
log "survivor DOS $dos sha256=$got_sum"

cmp -s "$tmp/got.dos" "$tmp/ref.dos" ||
    fail "taken-over DOS differs from uninterrupted reference ($got_sum != $ref_sum)"
log "OK: survivor resumed after kill -9 and reproduced the reference DOS byte for byte"
