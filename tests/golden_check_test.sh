#!/bin/sh
# Self-test of tests/golden/check.sh, the golden lane's checker: run it
# on a tiny fake binary and require a pass on byte-identical stdout (bare
# and with arguments from <name>.args) and a failure, with the checker's
# own message, on a one-byte stdout change, a nonzero exit, and a written
# file that has no <name>.sha256.
#
#   golden_check_test.sh <check.sh>
set -u
checker=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
cat > "$dir/fake" <<'EOF'
#!/bin/sh
echo "fake $*"
case " $* " in
    *" --fail "*) exit 3 ;;
    *" --write "*) echo trace > out.json ;;
esac
EOF
chmod +x "$dir/fake"
failures=0

# expect <want> <golden stdout> [args]: <want> is "pass", or a string
# that check.sh's failure message must contain.
expect() {
    printf '%s\n' "$2" > "$dir/fake.txt"
    rm -f "$dir/fake.args"
    [ $# -lt 3 ] || printf '%s\n' "$3" > "$dir/fake.args"
    if sh "$checker" "$dir/fake" "$dir/fake.txt" > "$dir/log" 2>&1; then
        got=pass
    else
        got=$(cat "$dir/log")
    fi
    case $got in
        *"$1"*) echo "ok: $1" ;;
        *) echo "FAILED: want '$1', got:"; echo "$got"
           failures=$((failures + 1)) ;;
    esac
}

expect pass "fake "
expect pass "fake --smoke 7" "--smoke 7"
expect "stdout differs" "fakE "
expect "exited 3" "fake --fail" "--fail"
expect "no digest file" "fake --write" "--write"
[ "$failures" -eq 0 ]
