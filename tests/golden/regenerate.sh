#!/bin/sh
# Rewrite tests/golden/<name>.txt from the stdout of every binary with a
# golden test in a Release build tree (the ctest tests labelled
# `golden`, whose set the top-level CMakeLists declares), each run from
# an empty temp directory with the arguments in <name>.args as check.sh
# runs it, and tests/golden/<name>.sha256 from the SHA-256 digests of
# the files it writes there (removed when it writes none). A change that
# alters a golden says which and why in CHANGES.md.
#
#   tests/golden/regenerate.sh [build-dir]   (default: build)
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "${1:-build}" && pwd)

names=$(cd "$build" && ctest -N -L golden | sed -n 's/.*Test *#[0-9]*: golden_//p')
[ -n "$names" ] || { echo "no golden tests in $build" >&2; exit 1; }
for name in $names; do
    args=$(cat "$here/$name.args" 2>/dev/null) || args=
    dir=$(mktemp -d)
    (cd "$dir" && "$build/$name" $args) > "$here/$name.txt"
    echo "wrote tests/golden/$name.txt"
    (cd "$dir" && find . -type f | sed 's|^\./||' | LC_ALL=C sort |
        xargs -r sha256sum) > "$here/$name.sha256"
    if [ -s "$here/$name.sha256" ]; then
        echo "wrote tests/golden/$name.sha256"
    else
        rm -f "$here/$name.sha256"
    fi
    rm -rf "$dir"
done
