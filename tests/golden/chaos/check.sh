#!/usr/bin/env bash
# Chaos verdict goldens: the replay contract of the campaign engine.
#
# Runs chaos_campaign under each configuration below, captures its full
# stdout (the [event] log, the report and the verdict line; stderr carries
# wall-clock phase timings and is not recorded) and cmp's it against the
# golden file of the same name. JSON verdicts mask the value of every key
# ending in _s or _ns, the only wall-clock fields they carry.
#
# Usage: check.sh CHAOS_CAMPAIGN_BINARY [--record]
#   --record rewrites the goldens from the given binary instead of
#   comparing. Exit 0 iff every configuration matched its golden.
set -u

bin="${1:?usage: check.sh CHAOS_CAMPAIGN_BINARY [--record]}"
record="${2:-}"
here="$(cd "$(dirname "$0")" && pwd)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# name | arguments (@DIR@ becomes a fresh empty store directory)
configs=(
    "array_qd_default|--seed 42 --ops 3000"
    "array_qd1|--seed 42 --ops 3000 --queue-depth 1"
    "array_qd8|--seed 42 --ops 3000 --queue-depth 8"
    "array_fail_slow_qd1|--seed 42 --ops 3000 --queue-depth 1 --fail-slow"
    "array_fail_slow_qd8|--seed 42 --ops 3000 --queue-depth 8 --fail-slow"
    "array_persist_qd1|--seed 42 --ops 4000 --queue-depth 1 --persist-dir @DIR@"
    "array_persist_qd8|--seed 42 --ops 4000 --queue-depth 8 --persist-dir @DIR@"
    "array_persist_fail_slow_qd8|--seed 42 --ops 8000 --queue-depth 8 --persist-dir @DIR@ --fail-slow"
    "volume3_fail_slow_qd1|--shards 3 --seed 42 --ops 6000 --queue-depth 1 --fail-slow"
    "volume3_fail_slow_qd8|--shards 3 --seed 42 --ops 6000 --queue-depth 8 --fail-slow"
    "volume2_persist_qd8|--shards 2 --seed 42 --ops 6000 --queue-depth 8 --persist-dir @DIR@"
    "array_json|--seed 42 --ops 2000 --json"
    "volume3_json|--shards 3 --seed 42 --ops 6000 --fail-slow --json"
)

fail=0
n=0
for entry in "${configs[@]}"; do
    name="${entry%%|*}"
    args="${entry#*|}"
    dir="$scratch/$name"
    mkdir -p "$dir"
    args="${args//@DIR@/$dir}"
    # shellcheck disable=SC2086  # word-splitting the argument list is intended
    "$bin" $args 2>/dev/null |
        sed -E 's/"([A-Za-z0-9_]*_(s|ns))":[-+0-9.eE]+/"\1":"masked"/g' \
            > "$scratch/$name.out"
    n=$((n + 1))
    if [ "$record" = "--record" ]; then
        cp "$scratch/$name.out" "$here/$name.txt"
        continue
    fi
    if ! cmp -s "$scratch/$name.out" "$here/$name.txt"; then
        echo "golden mismatch: $name ($args)" >&2
        diff "$here/$name.txt" "$scratch/$name.out" | head -20 >&2
        fail=1
    fi
done

if [ "$record" = "--record" ]; then
    echo "chaos goldens: recorded $n"
    exit 0
fi
[ "$fail" -eq 0 ] && echo "chaos goldens: $n/$n byte-identical"
exit "$fail"
