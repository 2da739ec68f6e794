#!/usr/bin/env bash
# Same-seed determinism check for the wfsm CLI.
#
# Each `row` below runs one wfsm command twice, in two separate
# processes, and compares the two stdouts byte for byte. A command that
# also writes a file or a data dir names its path @ART@: both runs get the
# same path (wfsm echoes it on stdout), the artifact is moved aside after
# each run, and the two copies are compared with `diff -r`, so a data dir
# is compared WAL by WAL and snapshot by snapshot.
#
# Usage: tools/determinism.sh [WFSM_A [WFSM_B]]
#   default binary: target/release/wfsm (`cargo build --release -p wf-cli`)
#   With a second binary, run 1 of each row uses WFSM_A and run 2 uses
#   WFSM_B, so the rows compare two builds (say, a change and its parent)
#   and the script ends by listing the rows that differ. Everything else
#   (the shared fixtures, the closing checks) runs WFSM_A.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
wfsm=${1:-$root/target/release/wfsm}
wfsm_b=${2:-$wfsm}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failed=0
differ=()

docs2=$work/docs2.txt
docs4=$work/docs4.txt
printf 'The camera has excellent picture quality.\nThe battery is terrible.\n' > "$docs2"
printf 'The camera has excellent picture quality.\nThe battery is terrible.\nThe lens is sharp.\nThe flash misfires.\n' > "$docs4"

# a mined data dir and metrics export for the read-only rows
mined=$work/mined
"$wfsm" mine --input "$docs4" --subjects camera,battery --data-dir "$mined" \
    --metrics "$work/mined.json" > /dev/null
cp -r "$mined" "$work/mined.before"
# review corpora for the text rows
"$wfsm" gen-corpus --domain camera --out "$work/camera.txt" --docs 40 > /dev/null
"$wfsm" gen-corpus --domain music --out "$work/music.txt" --docs 40 > /dev/null

# row NAME ARGS...: run `wfsm ARGS` twice and compare
row() {
    local name=$1 art=$work/artifact run arg
    shift
    local args=()
    for arg in "$@"; do args+=("${arg//@ART@/$art}"); done
    for run in 1 2; do
        local bin=$wfsm
        if [ "$run" = 2 ]; then bin=$wfsm_b; fi
        rm -rf "$art"
        "$bin" "${args[@]}" > "$work/$name.$run"
        if [ -e "$art" ]; then mv "$art" "$work/$name.$run.art"; fi
    done
    if ! cmp -s "$work/$name.1" "$work/$name.2"; then
        echo "FAIL $name: stdout differs between runs"
        diff -u "$work/$name.1" "$work/$name.2" | head -20 || true
        failed=1
        differ+=("$name")
    elif [ -e "$work/$name.1.art" ] && ! diff -r "$work/$name.1.art" "$work/$name.2.art" > /dev/null; then
        echo "FAIL $name: $* wrote different files between runs"
        failed=1
        differ+=("$name")
    else
        echo "ok   $name"
    fi
}

chaos=(--chaos-seed 20050405 --fail-rate 0.15)

# text commands
row analyze           analyze --subjects camera,battery,lens --file "$work/camera.txt"
row entities          entities --file "$work/camera.txt"
row features          features "$work/camera.txt" "$work/music.txt" --top 10
row gen-corpus        gen-corpus --domain camera --out @ART@ --docs 5 --seed 1

# mining under chaos: report, WAL and snapshots reproduce per seed
for seed in 20050405 3405691582 3735928559; do
    row "mine-chaos-$seed" mine --input "$docs2" --data-dir @ART@ --chaos-seed "$seed" --fail-rate 0.2
done
row mine-metrics      mine --input "$docs4" --chaos-seed 20050405 --fail-rate 0.2 --metrics @ART@
row metrics-file      metrics --file "$work/mined.json"
row metrics-file-json metrics --file "$work/mined.json" --json
row metrics-input     metrics --input "$docs4" --chaos-seed 20050405 --fail-rate 0.2 --format json
for fmt in json chrome text; do
    row "trace-$fmt"  trace --input "$docs4" --chaos-seed 20050405 --fail-rate 0.2 --format "$fmt"
done
row doctor-json       doctor "${chaos[@]}" --docs 24 --rounds 2 --format json
row top-watch         top "${chaos[@]}" --docs 24 --watch 2
row serve-chaos       serve --docs 40 --clients 8 --qps 300 --requests 200 --chaos-seed 20050405 --fail-rate 0.1 --format json
row serve-uncached    serve --docs 40 --clients 8 --qps 300 --requests 200 --cache 0 --chaos-seed 20050405 --fail-rate 0.1 --format json
row serve-plain       serve --docs 40 --requests 120
row serve-durable     serve --docs 24 --requests 90 --chaos-seed 20050405 --fail-rate 0.1 --data-dir @ART@ --format json
for fmt in table json; do
    row "timeline-$fmt" timeline --workload serve "${chaos[@]}" --format "$fmt"
done
for fmt in text collapsed json; do
    row "profile-$fmt" profile --workload serve "${chaos[@]}" --format "$fmt"
done
row profile-mine      profile --workload mine "${chaos[@]}" --format collapsed
row diff              diff "$work/profile-json.1" "$work/profile-json.2"
row diff-metrics      diff "$work/mined.json" "$work/metrics-input.1" --format json
for fmt in text json; do
    row "logs-$fmt"   logs --workload serve "${chaos[@]}" --format "$fmt"
    row "logs-mine-$fmt" logs --workload mine "${chaos[@]}" --format "$fmt"
done
row logs-filtered     logs --level warn --target serving.
row recover-text      recover --data-dir "$mined"
row recover-json      recover --data-dir "$mined" --format json
row query             query --data-dir "$mined" --subject camera
row query-negative    query --data-dir "$mined" --subject battery --polarity -
row search            search --data-dir "$mined" --query 'excellent AND NOT terrible' --explain
row help              help

# reading a data dir repairs nothing
if ! diff -r "$work/mined.before" "$mined" > /dev/null; then
    echo "FAIL recover/query/search modified the data dir"
    failed=1
fi

# chaos mining keeps per-stage NLP attribution
if ! grep -q 'nlp.tokenize' "$work/profile-mine.1"; then
    echo "FAIL profile-mine: no nlp.tokenize frames"
    failed=1
fi

# same-seed runs diff to verdict ok; a perturbed run does not
"$wfsm" diff "$work/profile-json.1" "$work/profile-json.2" --format json > "$work/verdict.json"
python3 "$root/tools/bench_gate.py" --baseline "$root/artifacts" --current "$root/artifacts" \
    --expect BENCH_telemetry.json,BENCH_trace.json,BENCH_health.json,BENCH_serving.json,BENCH_nlp.json,BENCH_profile.json,BENCH_durable.json,BENCH_evlog.json \
    --diff-verdict "$work/verdict.json" || failed=1
"$wfsm" profile --workload serve --chaos-seed 99 --fail-rate 0.3 --format json > "$work/perturbed.json"
"$wfsm" diff "$work/profile-json.1" "$work/perturbed.json" --format json > "$work/perturbed-verdict.json"
if grep -q '"verdict": "ok"' "$work/perturbed-verdict.json"; then
    echo "FAIL perturbed run unexpectedly diffed clean"
    failed=1
fi

# a latency histogram whose p99 moved from 5 to 895 ms fails the gate
printf '{"counters": {}, "histograms": {"h": {"count": 1, "sum": 5, "min": 5, "max": 5, "buckets": [{"le": 8, "count": 1}]}}}\n' > "$work/hist-a.json"
printf '{"counters": {}, "histograms": {"h": {"count": 2, "sum": 900, "min": 5, "max": 895, "buckets": [{"le": 8, "count": 1}, {"le": 1024, "count": 1}]}}}\n' > "$work/hist-b.json"
"$wfsm" diff "$work/hist-a.json" "$work/hist-b.json" --format json > "$work/hist-verdict.json"
python3 "$root/tools/bench_gate.py" --baseline "$root/artifacts" --current "$root/artifacts" \
    --diff-verdict "$work/hist-verdict.json" > "$work/hist-gate.txt" || true
if ! grep -q "histogram 'h.p99' 5 -> 895" "$work/hist-gate.txt"; then
    echo "FAIL a moved histogram p99 passed the diff-verdict gate"
    failed=1
fi

if [ "$wfsm_b" != "$wfsm" ]; then
    echo "rows that differ between the two binaries: ${differ[*]:-none}"
fi

exit $failed
