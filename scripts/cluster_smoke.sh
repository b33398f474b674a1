#!/usr/bin/env bash
# Cluster smoke gate: boots a real 3-replica m3serve fleet on loopback with
# scatter-gather enabled and checks that a quantile query answered by the
# fleet is byte-identical to the same query against a single standalone
# process. This is the cross-process twin of TestClusterScatterParity —
# it exercises the actual binaries, real sockets, workload replication,
# and the scatter plan split across three OS processes.
#
# Usage: scripts/cluster_smoke.sh   (run from anywhere; ~10s)
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PIDS=()
cleanup() {
    [[ ${#PIDS[@]} -gt 0 ]] && kill "${PIDS[@]}" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/m3serve" ./cmd/m3serve
# A seconds-scale training run is enough: the query below uses the flowsim
# method, so the checkpoint only has to load and pass the self-check.
go run ./cmd/m3train -out "$TMP/tiny.ckpt" -scenarios 16 -epochs 2 -net-workloads 0 \
    -dim 16 -heads 2 -layers 1 -hidden 32 >/dev/null 2>"$TMP/train.log" ||
    { cat "$TMP/train.log" >&2; exit 1; }

BASE=19460
# flowsim at high load: deterministic, non-trivial slowdown quantiles (a
# barely trained smoke checkpoint would make the m3 method's output a
# near-constant, which would pass parity vacuously).
QUERY='workload=smoke&method=flowsim&paths=40&seed=3&q=0.5,0.9,0.99'

wait_healthy() {
    ADDRS="$*" python3 - <<'PYEOF'
import os, sys, time, urllib.request
deadline = time.time() + 30
for a in os.environ["ADDRS"].split():
    while True:
        try:
            urllib.request.urlopen("http://%s/healthz" % a, timeout=1).read()
            break
        except Exception:
            if time.time() > deadline:
                sys.exit("replica %s never became healthy" % a)
            time.sleep(0.1)
PYEOF
}

# register_and_fetch ADDR... — registers the smoke workload on the first
# replica, waits for it to replicate to all, then writes each replica's
# quantile values to $TMP/resp-<addr>.json. Only the "quantiles" object is
# kept: the envelope's cached flag legitimately differs per replica (the
# second replica queried answers from the fleet cache).
register_and_fetch() {
    ADDRS="$*" TMP="$TMP" QUERY="$QUERY" python3 - <<'PYEOF'
import json, os, sys, time, urllib.request, urllib.error

addrs = os.environ["ADDRS"].split()
tmp, query = os.environ["TMP"], os.environ["QUERY"]
body = json.dumps({
    "name": "smoke",
    "spec": {"num_flows": 2000, "max_load": 0.9, "burstiness": 2.5, "seed": 7},
}).encode()
req = urllib.request.Request("http://%s/v1/workloads" % addrs[0], data=body,
                             headers={"Content-Type": "application/json"})
try:
    urllib.request.urlopen(req, timeout=10).read()
except urllib.error.HTTPError as e:
    if e.code != 409:  # already there from an earlier attempt is fine
        sys.exit("workload create failed: %s %s" % (e.code, e.read()))

deadline = time.time() + 30
for a in addrs:
    while True:
        try:
            urllib.request.urlopen("http://%s/v1/workloads/smoke" % a, timeout=1).read()
            break
        except Exception:
            if time.time() > deadline:
                sys.exit("workload never replicated to %s" % a)
            time.sleep(0.05)

for a in addrs:
    resp = urllib.request.urlopen("http://%s/v1/quantiles?%s" % (a, query), timeout=120)
    obj = json.loads(resp.read())
    with open("%s/resp-%s.json" % (tmp, a.replace(":", "_")), "w") as f:
        f.write(json.dumps(obj["quantiles"], sort_keys=True))
PYEOF
}

echo "-- standalone reference --"
SOLO="127.0.0.1:$((BASE + 9))"
"$TMP/m3serve" -checkpoint "$TMP/tiny.ckpt" -addr "$SOLO" -cache 8 \
    2>"$TMP/serve-solo.log" &
PIDS+=($!)
wait_healthy "$SOLO"
register_and_fetch "$SOLO"
kill "${PIDS[@]}" 2>/dev/null || true
wait 2>/dev/null || true
PIDS=()

echo "-- 3-replica scatter fleet --"
ADDRS=()
for i in 1 2 3; do ADDRS+=("127.0.0.1:$((BASE + i))"); done
for i in 0 1 2; do
    peers=""
    for j in 0 1 2; do
        [[ "$i" == "$j" ]] && continue
        peers+="${peers:+,}${ADDRS[$j]}"
    done
    "$TMP/m3serve" -checkpoint "$TMP/tiny.ckpt" -addr "${ADDRS[$i]}" -cache 8 \
        -peers "$peers" -scatter 2>"$TMP/serve-$i.log" &
    PIDS+=($!)
done
wait_healthy "${ADDRS[@]}"
register_and_fetch "${ADDRS[@]}"

for a in "${ADDRS[@]}"; do
    if ! cmp -s "$TMP/resp-${SOLO/:/_}.json" "$TMP/resp-${a/:/_}.json"; then
        echo "cluster smoke FAILED: $a quantiles differ from standalone:" >&2
        echo "  solo:  $(cat "$TMP/resp-${SOLO/:/_}.json")" >&2
        echo "  $a: $(cat "$TMP/resp-${a/:/_}.json")" >&2
        exit 1
    fi
done
echo "cluster smoke ok: 3-replica scatter quantiles byte-identical to standalone"
