#!/bin/sh
# loc — non-test Go lines per package (plain `wc -l`, the number ROADMAP
# aim 2 tracks), checked against the budgets in scripts/loc.budget.
#
# A budgeted package may shrink freely; growing past its budget fails the
# gate until the budget line is edited in the same change — so the count
# only goes up on purpose. bench/ is its own module and is not counted;
# nor are testdata/ trees, which the go tool builds into nothing (they are
# test inputs, such as scripts/deadcode's fixture modules).
#
# Run from anywhere: the script cds to the repo root. Exit 1 when over.
set -u
cd "$(dirname "$0")/.." || exit 1
status=0

total=0
printf '%8s  %s\n' lines package
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
    -exec dirname {} \; | sort -u); do
    n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    pkg=${dir#./}
    total=$((total + n))
    budget=$(awk -v p="$pkg" '$1 == p { print $2 }' scripts/loc.budget)
    if [ -n "$budget" ] && [ "$n" -gt "$budget" ]; then
        printf '%8d  %s  OVER BUDGET (%d)\n' "$n" "$pkg" "$budget"
        status=1
    elif [ -n "$budget" ]; then
        printf '%8d  %s  (budget %d)\n' "$n" "$pkg" "$budget"
    else
        printf '%8d  %s\n' "$n" "$pkg"
    fi
done
printf '%8d  total\n' "$total"
if [ "$status" -ne 0 ]; then
    echo "loc: a package grew past scripts/loc.budget; shrink it or raise the budget in this change" >&2
fi
exit $status
