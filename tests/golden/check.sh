#!/bin/sh
# Golden-output check: run one binary from an empty temp directory (some
# write trace files into their working directory) and compare its stdout
# with the committed file byte for byte. On a mismatch, print the first
# differing lines as a unified diff.
#
#   check.sh <binary> <expected-stdout-file>
#
# regenerate.sh rewrites the expected files from a build tree.
set -u
bin=$1
expected=$2
name=$(basename "$bin")
case $bin in /*) ;; *) bin=$PWD/$bin ;; esac

if [ ! -f "$expected" ]; then
    echo "$name: no golden file $expected (run tests/golden/regenerate.sh)"
    exit 1
fi

dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/cwd"
(cd "$dir/cwd" && "$bin") > "$dir/stdout"
status=$?
if [ "$status" -ne 0 ]; then
    echo "$name: exited $status"
    exit 1
fi
if ! cmp -s "$expected" "$dir/stdout"; then
    echo "$name: stdout differs from $expected; first differing lines:"
    diff -u "$expected" "$dir/stdout" | head -n 40
    exit 1
fi
