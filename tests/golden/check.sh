#!/bin/sh
# Golden-output check: run one binary from an empty temp directory (some
# write trace files into their working directory) and compare its stdout
# with the committed file byte for byte. On a mismatch, print the first
# differing lines as a unified diff. The files the binary writes are
# pinned too: their SHA-256 digests must match <name>.sha256 next to the
# expected stdout (a binary that writes no files has no digest file).
# A <name>.args file next to it holds the binary's arguments (e.g.
# --smoke), split on whitespace; without one the binary runs bare.
#
#   check.sh <binary> <expected-stdout-file>
#
# regenerate.sh rewrites the expected files from a build tree.
set -u
bin=$1
expected=$2
digests=${expected%.txt}.sha256
args=$(cat "${expected%.txt}.args" 2>/dev/null) || args=
name=$(basename "$bin")
case $bin in /*) ;; *) bin=$PWD/$bin ;; esac

if [ ! -f "$expected" ]; then
    echo "$name: no golden file $expected (run tests/golden/regenerate.sh)"
    exit 1
fi

dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/cwd"
# $args is unquoted on purpose: one word per argument.
(cd "$dir/cwd" && "$bin" $args) > "$dir/stdout"
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

# sha256sum lines ("<digest>  <file>") of every file written, by name.
(cd "$dir/cwd" && find . -type f | sed 's|^\./||' | LC_ALL=C sort |
    xargs -r sha256sum) > "$dir/written.sha256"
if [ -f "$digests" ]; then
    if ! cmp -s "$digests" "$dir/written.sha256"; then
        echo "$name: written files differ from $digests:"
        diff -u "$digests" "$dir/written.sha256"
        exit 1
    fi
elif [ -s "$dir/written.sha256" ]; then
    echo "$name: wrote files but has no digest file $digests" \
         "(run tests/golden/regenerate.sh):"
    cat "$dir/written.sha256"
    exit 1
fi
