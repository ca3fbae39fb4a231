#!/bin/sh
# deps — import-direction gate on the client end of the attested channel.
#
# internal/client is the one component outside the enclave that holds a
# query in the clear, so it stays small and transport-free: it may import
# only the standard library, securechannel, attestation, core and mux, and
# never net, net/http, the node (internal/proxy) or the daemon around it
# (internal/broker). The broker carries the client over its transports and
# must not link the node either.
#
# Run from anywhere: the script cds to the repo root. Exit 1 on any hit.
set -u
cd "$(dirname "$0")/.." || exit 1
status=0

deny() { # deny <package> <forbidden dependency>...
    pkg=$1
    shift
    deps=$(go list -deps "$pkg") || { echo "deps: go list $pkg failed" >&2; exit 1; }
    for bad in "$@"; do
        if printf '%s\n' "$deps" | grep -qx "$bad"; then
            echo "deps: $pkg depends on $bad" >&2
            status=1
        fi
    done
}

deny ./internal/client net net/http xsearch/internal/proxy xsearch/internal/broker
deny ./internal/broker xsearch/internal/proxy
exit $status
