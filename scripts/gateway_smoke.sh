#!/usr/bin/env bash
# End-to-end smoke test for the HTTP gateway: boots `slade-cli serve` on
# an ephemeral port, POSTs a decompile request, asserts a 200 with valid
# JSON candidates, POSTs it twice more over one connection and asserts two
# cache hits with the same candidates, spends the client's quota on a
# fourth POST (429), POSTs a 64 KiB body of `[` (400) and checks the same
# server still answers /healthz and a decompile, scrapes /metrics through
# `slade-cli stats --url`, greps the counter families, and diffs the
# scrape's families against crates/obs/families.txt. Run from the repo
# root; pass a prebuilt slade-cli path as $1 to skip the cargo build.
set -euo pipefail

CLI="${1:-}"
if [[ -z "$CLI" ]]; then
  cargo build --release --bin slade-cli
  CLI=target/release/slade-cli
fi

WORK="$(mktemp -d)"
ADDR_FILE="$WORK/addr"
SERVER_LOG="$WORK/serve.log"

cleanup() {
  [[ -n "${SERVER_PID:-}" ]] && kill "$SERVER_PID" 2>/dev/null || true
  [[ -n "${SERVER_PID:-}" ]] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$CLI" serve --addr 127.0.0.1:0 --addr-file "$ADDR_FILE" \
  --shards 2 --queue-cap 32 --quota-rps 0.001 --quota-burst 3 >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# The addr file appears once the listener is bound.
for _ in $(seq 1 100); do
  [[ -s "$ADDR_FILE" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$SERVER_LOG"; exit 1; }
  sleep 0.2
done
[[ -s "$ADDR_FILE" ]] || { echo "server never wrote $ADDR_FILE"; cat "$SERVER_LOG"; exit 1; }
ADDR="$(cat "$ADDR_FILE")"
echo "gateway listening on $ADDR"

# POST /v1/decompile: 200 with a non-empty JSON candidates array.
BODY='{"asm":"f0:\n\tpushq %rbp\n\tmovq %rsp, %rbp\n\tmovl %edi, -4(%rbp)\n\taddl $3, %eax\n\tpopq %rbp\n\tret\n","isa":"x86","opt":"O0"}'
STATUS="$(curl -sS -o "$WORK/resp.json" -w '%{http_code}' \
  -H 'content-type: application/json' -H 'x-slade-client: smoke' \
  -d "$BODY" "http://$ADDR/v1/decompile")"
echo "POST /v1/decompile -> $STATUS"
[[ "$STATUS" == "200" ]] || { cat "$WORK/resp.json"; cat "$SERVER_LOG"; exit 1; }
python3 - "$WORK/resp.json" <<'EOF'
import json, sys
resp = json.load(open(sys.argv[1]))
assert isinstance(resp["trace_id"], int), resp
assert isinstance(resp["candidates"], list) and resp["candidates"], resp
assert all(isinstance(c, str) for c in resp["candidates"]), resp
print(f"ok: {len(resp['candidates'])} candidates, trace {resp['trace_id']}")
EOF

# The same body twice more on one connection (curl reuses it for a
# repeated URL): both are cache hits, answered by the connection worker
# that parsed them, with the candidates of the first answer.
HITS="$(curl -sS -o "$WORK/hit1.json" -o "$WORK/hit2.json" \
  -w '%{http_code}/%{num_connects} ' \
  -H 'content-type: application/json' -H 'x-slade-client: smoke' \
  -d "$BODY" "http://$ADDR/v1/decompile" "http://$ADDR/v1/decompile")"
echo "POST /v1/decompile x2 -> $HITS(status/new connections)"
[[ "$HITS" == "200/1 200/0 " ]] || { cat "$WORK"/hit?.json; cat "$SERVER_LOG"; exit 1; }
python3 - "$WORK/resp.json" "$WORK/hit1.json" "$WORK/hit2.json" <<'EOF'
import json, sys
first, *hits = (json.load(open(p))["candidates"] for p in sys.argv[1:])
assert all(h == first for h in hits), (first, hits)
print("ok: both hits repeat the first answer")
EOF

# A fourth POST from the same client finds its burst of 3 spent: the one
# family only a shed client exposes now appears in the scrape.
STATUS="$(curl -sS -o /dev/null -w '%{http_code}' \
  -H 'content-type: application/json' -H 'x-slade-client: smoke' \
  -d "$BODY" "http://$ADDR/v1/decompile")"
echo "POST /v1/decompile (quota spent) -> $STATUS"
[[ "$STATUS" == "429" ]] || { cat "$SERVER_LOG"; exit 1; }

# A body nested past the JSON parser's limit is a 400, not a crash: the
# same server then answers /healthz and a decompile from another client.
head -c 65536 /dev/zero | tr '\0' '[' >"$WORK/nested.json"
STATUS="$(curl -sS -o "$WORK/nested.resp" -w '%{http_code}' \
  -H 'content-type: application/json' -H 'x-slade-client: smoke-nested' \
  --data-binary @"$WORK/nested.json" "http://$ADDR/v1/decompile")"
echo "POST /v1/decompile (64 KiB of '[') -> $STATUS"
[[ "$STATUS" == "400" ]] || { cat "$WORK/nested.resp"; cat "$SERVER_LOG"; exit 1; }
STATUS="$(curl -sS -o "$WORK/health.json" -w '%{http_code}' "http://$ADDR/healthz")"
echo "GET /healthz -> $STATUS"
[[ "$STATUS" == "200" ]] || { cat "$SERVER_LOG"; exit 1; }
grep -q '"status":"ok"' "$WORK/health.json"
STATUS="$(curl -sS -o "$WORK/after.json" -w '%{http_code}' \
  -H 'content-type: application/json' -H 'x-slade-client: smoke-nested' \
  -d "$BODY" "http://$ADDR/v1/decompile")"
echo "POST /v1/decompile (after the nested body) -> $STATUS"
[[ "$STATUS" == "200" ]] || { cat "$WORK/after.json"; cat "$SERVER_LOG"; exit 1; }

# The stats scrape mode validates the combined exposition.
"$CLI" stats --url "http://$ADDR"

# Raw scrape carries both the runtime and gateway families.
curl -sS "http://$ADDR/metrics" >"$WORK/metrics.prom"
grep -E '^slade_gateway_requests_total\{code="200"\} [1-9]' "$WORK/metrics.prom"
grep -E '^slade_gateway_connections_total [1-9]' "$WORK/metrics.prom"
grep -E '^slade_requests_submitted_total [1-9]' "$WORK/metrics.prom"
grep -E '^slade_cache_hits_total ([2-9]|[1-9][0-9]+)$' "$WORK/metrics.prom"
grep -E '^slade_gateway_pending_deliveries 0$' "$WORK/metrics.prom"
grep -E '^slade_gateway_quota_shed_total 1$' "$WORK/metrics.prom"
grep -E '^slade_conservation_drift 0$' "$WORK/metrics.prom"
# Every family the process exposes is the committed list, no more, no less:
# one removed in code but not in the file (or the reverse) fails here.
diff crates/obs/families.txt <(grep '^# TYPE ' "$WORK/metrics.prom" | LC_ALL=C sort)

echo "gateway smoke passed"
