#!/bin/sh
# telemetry-lint — static gate: nothing content-bearing reaches telemetry.
#
# In the paper's threat model the host IS the adversary, and everything
# the proxy publishes — /metrics, /events, the -log-json stream — is
# adversary-readable by construction. SimAttack-style re-identification
# needs query text or per-request shape; this gate asserts at the source
# level that no telemetry call site outside the enclave touches query or
# result content, and that metric labels stay in the closed sets the
# cardinality rule allows. It is a grep gate, deliberately: cheap, zero
# dependencies, and it fails loudly when a new emission site shows up
# somewhere it cannot classify.
#
# Run from anywhere: the script cds to the repo root. Exit 1 on any hit.
set -u
cd "$(dirname "$0")/.." || exit 1
status=0

note() {
    echo "telemetry-lint: $*" >&2
    status=1
}

# 1. internal/obs stays content-blind: the telemetry package must not
#    import any package that defines or carries query/result content.
out=$(grep -rn 'xsearch/internal/\(core\|enclave\|broker\|answer\|searchengine\|obfuscation\)' \
    internal/obs --include='*.go' | grep -v '_test.go')
if [ -n "$out" ]; then
    echo "$out"
    note "internal/obs imports a content-carrying package"
fi

# 2. Event emission sites are content-free. obs.Event literals may wrap
#    onto a following line, so scan a two-line forward window for
#    identifiers that hold request or result content.
out=$(grep -rn -A2 'obs\.Event{' --include='*.go' internal cmd 2>/dev/null |
    grep -v '_test.go' |
    grep -E 'req\.Query|\.Query\(|[^a-z]query[^a-z]|core\.Result|[^a-z]results[^a-z]|Snippet|\.Title|\.URL')
if [ -n "$out" ]; then
    echo "$out"
    note "obs.Event emission site references request/result content"
fi

# 3. Prometheus label keys come from the closed set {stage, shard,
#    upstream} — constant cardinality is what keeps the scrape shape
#    independent of what users queried.
for f in internal/proxy/metrics_http.go internal/fleet/metrics_http.go; do
    keys=$(grep -o ', "[a-z_]*"' "$f" | sed 's/, "//; s/"//' | sort -u)
    for k in $keys; do
        case "$k" in
        stage | shard | upstream) ;;
        *)
            note "$f uses label key \"$k\" outside the closed set"
            ;;
        esac
    done
done

# 4. Stage names at recording sites are obs.Stage* constants, never
#    strings built at runtime — the closed set is enforced at the call
#    site, not just inside the recorder.
out=$(grep -rn 'stages\.\(Record\|Since\)(' --include='*.go' internal cmd 2>/dev/null |
    grep -v '_test.go' |
    grep -v 'obs\.Stage[A-Z]')
if [ -n "$out" ]; then
    echo "$out"
    note "stage recorded under a non-constant name"
fi

# 5. Every Stage* constant is a member of StageNames — a stage defined
#    but left out of the closed list would record into a histogram the
#    Prometheus encoder and the fleet merge never export, silently
#    dropping its telemetry (the "handshake" stage is the cautionary
#    tale: it landed with the TLS transport, after the list was written).
consts=$(sed -n 's/^\t\(Stage[A-Za-z]*\) = .*/\1/p' internal/obs/obs.go)
names=$(sed -n '/^var StageNames/,/^}/p' internal/obs/obs.go)
for c in $consts; do
    case "$names" in
    *"$c"*) ;;
    *)
        note "internal/obs/obs.go defines $c but StageNames omits it"
        ;;
    esac
done

# 6. No client query reaches the host in the clear: the node's and the
#    gateway's client edges serve sealed calls only, so no non-test file in
#    internal/proxy or internal/fleet registers a /search route or reads a
#    q parameter (the gateway's admin ?shard= selector stays legal). Nor
#    does one cross into the enclave: no typePlain envelope type anywhere,
#    and no ServeQuery method on the gateway (a shard's Proxy.ServeQuery
#    is a sealed client; the fleet has nothing to route in the clear).
out=$(grep -rnE 'Handle(Func)?\("/search|Query\(\)\.Get\("q"\)|FormValue\("q"\)|typePlain' \
    internal/proxy internal/fleet --include='*.go' | grep -v '_test.go')
out="$out$(grep -rnE '^func \([^)]*\) ServeQuery\(' internal/fleet --include='*.go' | grep -v '_test.go')"
if [ -n "$out" ]; then
    echo "$out"
    note "a plaintext query reaches the host or the enclave (/search route, q parameter, typePlain, fleet ServeQuery)"
fi

# 7. The mux edge frames calls and nothing else: no per-stream credit
#    (WINDOW) frame and no RESUME announcement come back in non-test code.
#    A reconnecting broker tells the gateway nothing, because a session id
#    names its shard; per-stream size caps and chunked writes bound a
#    session without a flow-control window.
out=$(grep -rnE 'FrameWindow|FrameResume|OnResume|SendResume' --include='*.go' \
    internal cmd examples ./*.go | grep -v '_test.go')
if [ -n "$out" ]; then
    echo "$out"
    note "the mux edge regrew a credit or resume frame (FrameWindow, FrameResume, OnResume, SendResume)"
fi

if [ "$status" -ne 0 ]; then
    echo "telemetry-lint: FAILED" >&2
    exit 1
fi
echo "telemetry-lint: ok"
