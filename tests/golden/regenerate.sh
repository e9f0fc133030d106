#!/bin/sh
# Rewrite tests/golden/<name>.txt from the stdout of every paper artifact
# (bench_fig*, bench_table*, bench_ablation_*) and example study in a
# Release build tree, each run from an empty temp directory as check.sh
# runs it, and tests/golden/<name>.sha256 from the SHA-256 digests of
# the files it writes there (removed when it writes none). A change that
# alters a golden says which and why in CHANGES.md.
#
#   tests/golden/regenerate.sh [build-dir]   (default: build)
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "${1:-build}" && pwd)

found=0
for bin in "$build"/bench_fig* "$build"/bench_table* \
           "$build"/bench_ablation_* "$build"/example_*; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name=$(basename "$bin")
    dir=$(mktemp -d)
    (cd "$dir" && "$bin") > "$here/$name.txt"
    echo "wrote tests/golden/$name.txt"
    (cd "$dir" && find . -type f | sed 's|^\./||' | LC_ALL=C sort |
        xargs -r sha256sum) > "$here/$name.sha256"
    if [ -s "$here/$name.sha256" ]; then
        echo "wrote tests/golden/$name.sha256"
    else
        rm -f "$here/$name.sha256"
    fi
    rm -rf "$dir"
    found=$((found + 1))
done
[ "$found" -gt 0 ] || { echo "no binaries under $build" >&2; exit 1; }
