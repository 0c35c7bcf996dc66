#!/usr/bin/env bash
# End-to-end smoke test of the erapid-serve HTTP API:
#
#   1. build and start the daemon (with an admin listener)
#   2. POST a small P-B run and stream its live telemetry to completion
#   3. re-POST the identical config and verify the content-addressed
#      cache answers instantly with the same result digest
#   4. scrape /metrics around the cached re-submit: the cache-hit
#      counter must increment and the exposition must parse (valid
#      names, no duplicate families, cumulative histogram buckets)
#   5. verify the admin listener repeats /metrics and serves pprof
#   6. verify structured 400s for invalid configs
#   7. run 24 more uncached jobs and bound the peak resident set
#   8. SIGTERM and verify the server drains and exits
#
# Usage: scripts/service_smoke.sh [addr] [admin-addr]
#        (defaults 127.0.0.1:18080 and 127.0.0.1:18081)
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${1:-127.0.0.1:18080}"
ADMIN_ADDR="${2:-127.0.0.1:18081}"
WORKDIR="$(mktemp -d)"
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

go build -o "$WORKDIR/erapid-serve" ./cmd/erapid-serve
"$WORKDIR/erapid-serve" -addr "$ADDR" -admin-addr "$ADMIN_ADDR" -drain 60s -log=false &
SERVE_PID=$!

for _ in $(seq 1 100); do
  curl -fsS "http://$ADDR/v1/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$ADDR/v1/healthz" | python3 -c \
  'import sys, json; h = json.load(sys.stdin); assert h["status"] == "ok", h; print("healthz:", h)'

CFG='{"Mode":"P-B","Pattern":"complement","Load":0.7,"Boards":4,"NodesPerBoard":4,
      "Window":500,"WarmupCycles":3000,"MeasureCycles":3000,"DrainLimitCycles":60000}'

ID=$(curl -fsS -d "$CFG" "http://$ADDR/v1/runs" | python3 -c \
  'import sys, json; j = json.load(sys.stdin); assert j["state"] in ("queued", "running"), j; print(j["id"])')
echo "submitted run $ID"

# The event stream blocks until the run finishes; every line must parse
# in the stable JSONL schema and the measurement phases must appear.
curl -fsSN "http://$ADDR/v1/jobs/$ID/events" | python3 -c '
import sys, json
n = phases = 0
for line in sys.stdin:
    ev = json.loads(line)
    assert "cycle" in ev and "kind" in ev, ev
    n += 1
    phases += ev["kind"] == "phase"
assert n > 0 and phases >= 3, (n, phases)
print(f"streamed {n} events ({phases} phase changes)")
'

DIGEST=$(curl -fsS "http://$ADDR/v1/jobs/$ID" | python3 -c \
  'import sys, json; j = json.load(sys.stdin); assert j["state"] == "done", j; assert j["result"], j; print(j["result_digest"])')
echo "run done, result digest $DIGEST"

curl -fsS "http://$ADDR/metrics" > "$WORKDIR/metrics-before.txt"

# Identical config → content-addressed cache hit: instantly terminal,
# marked cached, byte-identical result (same digest), HTTP 200.
curl -fsS -o "$WORKDIR/second.json" -w '%{http_code}' -d "$CFG" "http://$ADDR/v1/runs" | grep -qx 200
DIGEST="$DIGEST" SECOND="$WORKDIR/second.json" python3 -c '
import json, os
j = json.load(open(os.environ["SECOND"]))
assert j.get("cached") is True, j
assert j["state"] == "done", j
assert j["result_digest"] == os.environ["DIGEST"], (j["result_digest"], os.environ["DIGEST"])
print("cache hit verified:", j["id"])
'

# /metrics around the cached re-submit: the hit counter increments by
# exactly one, and both scrapes are well-formed Prometheus exposition.
curl -fsS "http://$ADDR/metrics" > "$WORKDIR/metrics-after.txt"
BEFORE="$WORKDIR/metrics-before.txt" AFTER="$WORKDIR/metrics-after.txt" python3 -c '
import os, re

NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

def parse(path):
    values, families, last_bucket = {}, {}, {}
    for line in open(path):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, fam, typ = line.split(" ", 3)
            assert fam not in families, f"duplicate TYPE for {fam}"
            assert NAME.match(fam), f"bad family name {fam!r}"
            families[fam] = typ
            continue
        if line.startswith("#"):
            continue
        name, _, val = line.rpartition(" ")
        assert name, f"unnamed sample {line!r}"
        base = name.split("{", 1)[0]
        assert NAME.match(base), f"bad sample name {name!r}"
        v = float(val)
        values[name] = v
        if "_bucket{" in name:
            series = re.sub(r",?le=\"[^\"]*\"", "", name)
            assert v >= last_bucket.get(series, 0.0), f"non-cumulative bucket {name}"
            last_bucket[series] = v
    assert families, f"{path}: no metric families"
    return values, families

before, fam_b = parse(os.environ["BEFORE"])
after, fam_a = parse(os.environ["AFTER"])
for required in ("erapid_jobs_submitted_total", "erapid_cache_hits_total",
                 "erapid_job_run_seconds", "erapid_job_queue_wait_seconds",
                 "erapid_queue_depth", "go_goroutines"):
    assert required in fam_a, f"missing family {required}"
hits_before = before["erapid_cache_hits_total"]
hits_after = after["erapid_cache_hits_total"]
assert hits_after == hits_before + 1, (hits_before, hits_after)
assert after["erapid_jobs_submitted_total{kind=\"run\"}"] == 2, after
count = after["erapid_job_run_seconds_count{kind=\"run\"}"]
assert count == 1, f"run histogram count {count} (cache hit must not observe)"
print(f"metrics verified: cache hits {hits_before:g} -> {hits_after:g}, "
      f"{len(fam_a)} families parse clean")
'

# A config differing ONLY in the reconfiguration policy must be a new
# simulation with a distinct result digest — never a cache hit on the
# baseline entry (the policy participates in the content digest).
POLICY_CFG="${CFG%\}},\"Policy\":{\"name\":\"greedy-off\"}}"
POLICY_ID=$(curl -fsS -d "$POLICY_CFG" "http://$ADDR/v1/runs" | python3 -c '
import sys, json
j = json.load(sys.stdin)
assert not j.get("cached"), f"policy change served from cache: {j}"
print(j["id"])
')
curl -fsSN "http://$ADDR/v1/jobs/$POLICY_ID/events" >/dev/null
curl -fsS "http://$ADDR/v1/jobs/$POLICY_ID" | DIGEST="$DIGEST" python3 -c '
import sys, json, os
j = json.load(sys.stdin)
assert j["state"] == "done", j
d = j["result_digest"]
assert d != os.environ["DIGEST"], f"policy run repeated the baseline digest {d}"
print("policy digest distinction verified:", d)
'

# The admin listener repeats /metrics and serves the pprof index.
curl -fsS "http://$ADMIN_ADDR/metrics" | grep -q '^# TYPE erapid_jobs_submitted_total counter$'
curl -fsS "http://$ADMIN_ADDR/debug/pprof/" | grep -qi profile
echo "admin listener verified (metrics + pprof)"

# Invalid config → structured 400 naming the offending fields.
CODE=$(curl -s -o "$WORKDIR/err.json" -w '%{http_code}' -d '{"Load":-1,"Window":0}' "http://$ADDR/v1/runs")
test "$CODE" = 400
ERR="$WORKDIR/err.json" python3 -c '
import json, os
e = json.load(open(os.environ["ERR"]))
fields = {f["field"] for f in e["fields"]}
assert {"Load", "Window"} <= fields, e
print("validation errors verified:", sorted(fields))
'

# Memory: 24 more uncached runs (distinct seeds), each waited for. Their
# finished jobs keep their event logs, so the peak resident set bounds
# what a log costs. A log allocated at its full 65536-event ring
# (80 B each, 5.2 MB per job) would put the server near 140 MB; one
# that holds only the ~15k events a run emits stays near 40 MB.
IDS=()
for i in $(seq 1 24); do
  IDS+=("$(curl -fsS -d "${CFG%\}},\"Seed\":$((100 + i))}" "http://$ADDR/v1/runs" | python3 -c '
import sys, json
j = json.load(sys.stdin)
assert not j.get("cached"), j
print(j["id"])
')")
done
for id in "${IDS[@]}"; do
  curl -fsSN "http://$ADDR/v1/jobs/$id/events?kinds=phase" >/dev/null
  curl -fsS "http://$ADDR/v1/jobs/$id" | python3 -c \
    'import sys, json; j = json.load(sys.stdin); assert j["state"] == "done", j'
done
HWM_KB=$(awk '/^VmHWM:/ {print $2}' "/proc/$SERVE_PID/status")
echo "peak RSS after ${#IDS[@]} more runs: $((HWM_KB / 1024)) MB"
if [ "$HWM_KB" -gt $((80 * 1024)) ]; then
  echo "erapid-serve peak RSS ${HWM_KB} kB exceeds 80 MB" >&2
  exit 1
fi

# SIGTERM → graceful drain and exit.
kill -TERM "$SERVE_PID"
for _ in $(seq 1 200); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "erapid-serve did not exit after SIGTERM" >&2
  exit 1
fi
wait "$SERVE_PID" || true
echo "service smoke OK"
