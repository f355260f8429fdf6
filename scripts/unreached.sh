#!/usr/bin/env bash
# unreached.sh — list the non-test functions that no program reaches.
#
#   bash scripts/unreached.sh
#
# Builds the four commands, perfbench and the root package's test binary
# (whose tests and Examples count as callers of the facade) with inlining
# off and the linker's dependency dump on. Then prints, one per line as "file:line name",
# every func declared in a non-test file that no dump names. Test-helper
# packages (mattest, clustertest, chaos), perfbench itself and the lint
# fixtures under testdata/ are not listed. A name that must stay though no
# program reaches it goes on the keep-list below, and DESIGN.md ("What no
# program reaches") names who needs it; a keep-list entry that names no
# declared function is printed as stale. Prints nothing on a lean tree;
# scripts/ci.sh fails when it prints anything.
set -euo pipefail
cd "$(dirname "$0")/.."

keep='
extdict/internal/cluster.(*Comm).EnableTrace
extdict/internal/cluster.(*Rank).Barrier
extdict/internal/cluster.(*Rank).Node
extdict/internal/cluster.(*Rank).P
extdict/internal/mat.Equal
extdict/internal/mat.ResetPoolPeak
extdict/internal/perf.PredictDense
extdict/internal/perf.PredictSGD
extdict/internal/sparse.(*CSC).Dense
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
dump=(-gcflags=all=-l -ldflags=-dumpdep)

# build OUT CMD... runs one build, whose standard error is its dump, into
# OUT; when the build fails it shows the build's own error lines.
build() {
    local out=$1
    shift
    "$@" 2>"$out" || { grep -v -- ' -> ' "$out" >&2; exit 1; }
}

# One dump per program. A command's own functions are "main.F" in its dump;
# they are renamed to the command's import path so that two commands'
# functions of the same name stay apart.
for dir in cmd/*/; do
    cmd=$(basename "$dir")
    build "$tmp/$cmd.raw" go build "${dump[@]}" -o "$tmp/$cmd.bin" "./$dir"
    sed "s#\(^\|[ *]\)main\.#\1extdict/cmd/$cmd.#g" "$tmp/$cmd.raw" >"$tmp/$cmd.dump"
done
build "$tmp/perfbench.dump" go -C perfbench build "${dump[@]}" -o "$tmp/perfbench.bin" .
build "$tmp/root.dump" go test -c "${dump[@]}" -o "$tmp/root.bin" .

# Every name the dumps mention, with type arguments dropped, and each
# name's prefixes at its dots, so that pkg.F is reached when pkg.F.func1 or
# pkg.F.arginfo1 is named.
cat "$tmp"/*.dump |
    sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' |
    grep -oE 'extdict[/.][^ ]*' |
    awk -F. '{ s = $1; for (i = 2; i <= NF; i++) { s = s "." $i; print s } }' |
    sort -u >"$tmp/reached"

# Every func declared in a non-test file of the module, as the dump names
# it: pkg.F, pkg.T.M or pkg.(*T).M, with type parameters dropped.
git ls-files --cached --others --exclude-standard -- '*.go' ':!:*_test.go' \
    ':!:*/testdata/*' ':!:perfbench/*' ':!:internal/mat/mattest/*' \
    ':!:internal/cluster/clustertest/*' ':!:internal/cluster/chaos/*' |
    while read -r f; do
        [ -f "$f" ] || continue
        pkg="extdict/$(dirname "$f")"
        [ "$pkg" = "extdict/." ] && pkg=extdict
        awk -v pkg="$pkg" -v file="$f" '
            /^func / {
                line = $0
                sub(/^func /, "", line)
                recv = ""
                if (line ~ /^\(/) {
                    recv = line
                    sub(/\).*/, "", recv)
                    sub(/^\(/, "", recv)
                    sub(/^[^ ]+ /, "", recv)
                    sub(/\[.*/, "", recv)
                    sub(/^\([^)]*\) /, "", line)
                }
                name = line
                sub(/[\[(].*/, "", name)
                if (name == "init" || name == "main" && recv == "") next
                if (recv ~ /^\*/) full = pkg ".(" recv ")." name
                else if (recv != "") full = pkg "." recv "." name
                else full = pkg "." name
                print file ":" FNR " " full
            }' "$f"
    done >"$tmp/declared"

printf '%s\n' "$keep" | sed '/^$/d' | sort -u >"$tmp/keep"
# A declaration is printed when neither the dumps nor the keep-list name it.
awk 'FILENAME != ARGV[3] { skip[$0] = 1; next } !($2 in skip) { print }' \
    "$tmp/reached" "$tmp/keep" "$tmp/declared"
awk 'FILENAME == ARGV[1] { have[$2] = 1; next } !($0 in have) { print "stale keep-list entry: " $0 }' \
    "$tmp/declared" "$tmp/keep"
