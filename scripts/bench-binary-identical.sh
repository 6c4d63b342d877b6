#!/usr/bin/env bash
# Checks that a change leaves the benchmark binary byte-identical.
#
# Usage: scripts/bench-binary-identical.sh <rev>
#
# Builds bench/'s binary twice, from a `git archive` export of <rev> and from
# one of the working tree (tracked and untracked, not ignored, files), with
# bench/run.sh's build environment and a temporary GOCACHE outside the
# repository. Both exports are unpacked at the same temporary path in turn,
# since the binary records its source paths, and an export has no .git
# directory, so no VCS stamp can differ. Prints both sha256 sums and exits
# non-zero if they differ.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <rev>" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOCACHE="$tmp/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

# The working tree becomes a tree object through a throwaway index, so the
# real index is untouched.
work=$(cd "$root" && export GIT_INDEX_FILE="$tmp/index" && git add -A && git write-tree)

build() { # <tree-ish> -> prints the binary's sha256
	rm -rf "$tmp/src" && mkdir "$tmp/src"
	git -C "$root" archive "$1" | tar -x -C "$tmp/src"
	(cd "$tmp/src/bench" && go build -o "$tmp/ringcast-bench" .)
	sha256sum "$tmp/ringcast-bench" | cut -d' ' -f1
}

base_sum=$(build "$1")
work_sum=$(build "$work")
echo "$base_sum  $1"
echo "$work_sum  working tree"
[ "$base_sum" = "$work_sum" ]
