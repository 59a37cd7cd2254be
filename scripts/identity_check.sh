#!/usr/bin/env bash
# Golden diff: run the same fixed-seed campaign on the working tree and
# on a base revision, and require identical artifacts.
#
#   scripts/identity_check.sh [BASE]
#
# BASE defaults to the merge-base of HEAD and origin/main (HEAD when
# there is no origin/main). The base is checked out with `git worktree`
# into a temporary directory; both trees are built (dejavuzz only)
# into that directory, so an existing build/ is left alone. Each build
# runs
#
#   dejavuzz --workers 1 --iters 800 --master-seed 1 --campaign-dir DIR
#
# and then corpus.bin and campaign.snap must be byte-identical and
# campaign.jsonl must be identical once the wall-clock fields
# (active_seconds, wall_seconds, iters_per_sec, steal_idle_ns) and the
# trailer record (its byte count and CRC cover those fields) are
# removed. Exit 0 when everything matches, 1 on a difference, 2 on a
# usage or build error. Set JOBS to bound the build parallelism.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"

if [ $# -gt 1 ]; then
    echo "usage: $0 [BASE]" >&2
    exit 2
fi
if [ $# -eq 1 ]; then
    base_ref=$1
else
    base_ref=$(git merge-base HEAD origin/main 2>/dev/null || echo HEAD)
fi
if ! base=$(git rev-parse --verify --quiet "$base_ref^{commit}"); then
    echo "identity_check: unknown revision $base_ref" >&2
    exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/identity_check.XXXXXX")
cleanup() {
    git worktree remove --force "$tmp/base-src" >/dev/null 2>&1 || true
    git worktree prune >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --detach --quiet "$tmp/base-src" "$base"

generator=()
if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi

build() {  # source-dir build-dir
    if ! { cmake -B "$2" -S "$1" "${generator[@]}" \
               -DCMAKE_BUILD_TYPE=RelWithDebInfo \
               -DDEJAVUZZ_BUILD_TESTS=OFF -DDEJAVUZZ_BUILD_BENCH=OFF \
               -DDEJAVUZZ_BUILD_EXAMPLES=OFF &&
           cmake --build "$2" -j "${JOBS:-4}" --target dejavuzz
         } >"$2.log" 2>&1; then
        echo "identity_check: build of $1 failed; log follows" >&2
        cat "$2.log" >&2
        exit 2
    fi
}

campaign() {  # build-dir campaign-dir
    "$1/dejavuzz" --workers 1 --iters 800 --master-seed 1 \
        --campaign-dir "$2" --quiet
}

# Wall-clock fields vary run to run; everything else must not.
strip_wall() {
    grep -v '"type":"trailer"' "$1" |
        sed -E 's/,"(active_seconds|wall_seconds|iters_per_sec|steal_idle_ns)":[-+0-9.eE]*//g'
}

echo "identity_check: base $(git rev-parse --short "$base") vs working tree"
build "$tmp/base-src" "$tmp/base-build"
build "$root" "$tmp/work-build"
campaign "$tmp/base-build" "$tmp/base-camp"
campaign "$tmp/work-build" "$tmp/work-camp"

status=0
for file in corpus.bin campaign.snap; do
    if cmp -s "$tmp/base-camp/$file" "$tmp/work-camp/$file"; then
        echo "  $file: byte-identical ($(wc -c <"$tmp/work-camp/$file") bytes)"
    else
        echo "  $file: DIFFERS"
        status=1
    fi
done
if diff <(strip_wall "$tmp/base-camp/campaign.jsonl") \
        <(strip_wall "$tmp/work-camp/campaign.jsonl") >"$tmp/jsonl.diff"; then
    echo "  campaign.jsonl: identical without wall-clock fields" \
         "($(wc -l <"$tmp/work-camp/campaign.jsonl") records)"
else
    echo "  campaign.jsonl: DIFFERS (first lines of the diff follow)"
    head -n 20 "$tmp/jsonl.diff"
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "identity_check: PASS"
else
    echo "identity_check: FAIL"
fi
exit "$status"
