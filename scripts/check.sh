#!/bin/sh
# Full verification gate: build, vet, gofmt, race-checked tests, and an HTTP
# smoke test of the levad serving daemon end to end (generate data,
# build a bundle, serve it, featurize over the wire, drain on SIGTERM).
# The race run is slow (the experiment suites re-run under -race);
# expect several minutes on a small machine.
set -eux
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The tree stays gofmt-clean, the benchmark module included.
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt -l lists unformatted files:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
# Off linux, durable maps nothing (mmap_other.go) and levad's -mmap
# default is false; nothing else builds that code, so vet it for darwin
# and build the commands for windows.
GOOS=darwin go vet ./cmd/... ./internal/durable ./internal/core ./internal/ann ./internal/serve
GOOS=windows go build ./cmd/...
go test -race ./...
# The admission limiter settles a grant that races a queue timeout or a
# cancellation under its lock; a wrong interleaving leaks or double-
# grants a slot only rarely, so run its tests many times under the race
# detector.
go test -race -count=20 -run 'Limiter|Queue|Deadline' ./internal/serve
# The benchmark harness is its own module (bench/go.mod) and calls the
# ann and core APIs; its short tests catch a change that breaks it.
(cd bench && go test -short ./...)

# --- levad smoke test -------------------------------------------------
# Exercises the real binaries, not the in-process test harness: a
# levagen-generated dataset goes through `leva embed -bundle`, levad
# serves the bundle on an ephemeral port, and curl drives the API.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

go build -o "$SMOKE/bin/" ./cmd/leva ./cmd/levad ./cmd/levagen

"$SMOKE/bin/levagen" -dataset student -scale 0.05 -seed 7 -out "$SMOKE/csv"
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 \
    -out "$SMOKE/embedding.tsv" -bundle "$SMOKE/bundle" > "$SMOKE/embed.log"
cat "$SMOKE/embed.log"
# The stage line is one set of key=value pairs: each stage's wall time
# in milliseconds and its heap high-water mark above its start, nonzero
# for every stage of this cold build.
grep -Eq '^stage timings: textify_ms=[0-9]+\.[0-9]{3} textify_heap_peak_bytes=[1-9][0-9]* graph_ms=[0-9]+\.[0-9]{3} graph_heap_peak_bytes=[1-9][0-9]* embed_ms=[0-9]+\.[0-9]{3} embed_heap_peak_bytes=[1-9][0-9]*$' "$SMOKE/embed.log"

"$SMOKE/bin/levad" -bundle "$SMOKE/bundle" -addr 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 -ready-file "$SMOKE/addr" 2>"$SMOKE/levad.log" &
LEVAD_PID=$!

# Wait for the daemon to publish its bound address.
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad never became ready" >&2
        cat "$SMOKE/levad.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

curl -fsS "http://$ADDR/healthz"
# Every row is recomputed (featurized rows are not cached), so the same
# body posted twice must come back byte-identical.
FEATURIZE_BODY='{"table":"expenses","rows":[{"name":"student_00001","gender":"female","school_name":"school_1"}],"exclude":["total_expenses"]}'
for n in 1 2; do
    curl -fsS -X POST "http://$ADDR/v1/featurize" \
        -H 'Content-Type: application/json' -d "$FEATURIZE_BODY" \
        -o "$SMOKE/featurize_$n.json"
done
grep -q '"features"' "$SMOKE/featurize_1.json"
cmp "$SMOKE/featurize_1.json" "$SMOKE/featurize_2.json"
# /metrics serves the registry as Prometheus text.
curl -fsS "http://$ADDR/metrics" > "$SMOKE/metrics.txt"
grep -q '^leva_http_requests_total{endpoint="featurize"} 2$' "$SMOKE/metrics.txt"
grep -q '^# TYPE leva_http_requests_total counter$' "$SMOKE/metrics.txt"
if grep -q 'leva_rowcache_' "$SMOKE/metrics.txt"; then
    echo "levad still exports a leva_rowcache_ family" >&2
    exit 1
fi

# The -debug-addr listener: pprof and the registry as JSON.
DEBUG_ADDR=$(cat "$SMOKE/addr.debug")
curl -fsS "http://$DEBUG_ADDR/debug/vars" | grep -q '"leva_http_requests_total"'
curl -fsS "http://$DEBUG_ADDR/debug/pprof/cmdline" > /dev/null

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "levad smoke test passed"

# The bundle is format version 6: its arena section is an 8-byte
# dim/rows header plus 4 bytes (one float32) per value.
"$SMOKE/bin/leva" bundle info -json "$SMOKE/bundle" > "$SMOKE/info.json"
info_int() { sed -n "s/^  \"$1\": \([0-9]*\),\{0,1\}\$/\1/p" "$SMOKE/info.json"; }
test "$(info_int formatVersion)" -eq 6
test "$(info_int arenaBytes)" -eq $((8 + 4 * $(info_int entities) * $(info_int dim)))

# --- corruption smoke test --------------------------------------------
# A single flipped byte in a published bundle must be refused — by the
# daemon at startup and by `leva apply` — with an error that names the
# integrity check, never silently served. Bundles are one binary file
# (bundle.bin, formatVersion 6) sealed by MANIFEST.json.
cp -r "$SMOKE/bundle" "$SMOKE/bundle_corrupt"
printf '\377' | dd of="$SMOKE/bundle_corrupt/bundle.bin" \
    bs=1 count=1 seek=12 conv=notrunc 2>/dev/null

if "$SMOKE/bin/leva" apply -bundle "$SMOKE/bundle_corrupt" -data "$SMOKE/csv" \
    -table expenses -out "$SMOKE/never.tsv" 2>"$SMOKE/apply_corrupt.log"; then
    echo "leva apply accepted a corrupt bundle" >&2
    exit 1
fi
grep -q 'bundle.bin' "$SMOKE/apply_corrupt.log"
grep -qi 'MANIFEST\|SHA-256' "$SMOKE/apply_corrupt.log"

if "$SMOKE/bin/levad" -bundle "$SMOKE/bundle_corrupt" -addr 127.0.0.1:0 \
    2>"$SMOKE/levad_corrupt.log"; then
    echo "levad served a corrupt bundle" >&2
    exit 1
fi
grep -q 'bundle.bin' "$SMOKE/levad_corrupt.log"

# refuse_start <log> <what> <levad args...>: levad must exit at startup
# instead of serving, with a log that names the file and the integrity
# check.
refuse_start() {
    log=$1
    what=$2
    shift 2
    if "$SMOKE/bin/levad" "$@" -addr 127.0.0.1:0 2>"$log"; then
        echo "levad served $what" >&2
        exit 1
    fi
    grep -q 'SHA-256' "$log"
}

# The same bundle read onto the heap (-mmap=false) is refused as well.
refuse_start "$SMOKE/levad_corrupt_heap.log" "a corrupt bundle with -mmap=false" \
    -bundle "$SMOKE/bundle_corrupt" -mmap=false
grep -q 'bundle.bin' "$SMOKE/levad_corrupt_heap.log"

# flip_byte <file> <offset>: replace one byte with its complement.
flip_byte() {
    old=$(od -An -tu1 -j "$2" -N1 "$1" | tr -d ' ')
    printf "\\$(printf '%03o' $((255 - old)))" | dd of="$1" bs=1 count=1 seek="$2" conv=notrunc 2>/dev/null
}

# A flip in the last byte lands in the tail of the mapped check's last
# hashing chunk.
cp -r "$SMOKE/bundle" "$SMOKE/bundle_corrupt_tail"
flip_byte "$SMOKE/bundle_corrupt_tail/bundle.bin" \
    $(($(wc -c < "$SMOKE/bundle_corrupt_tail/bundle.bin") - 1))
refuse_start "$SMOKE/levad_corrupt_tail.log" "a bundle with its last byte flipped" \
    -bundle "$SMOKE/bundle_corrupt_tail"
grep -q 'bundle.bin' "$SMOKE/levad_corrupt_tail.log"

echo "corruption smoke test passed"

# --- live hot-reload smoke test ---------------------------------------
# Republish the bundle (new seed, same dim) while the daemon serves
# continuous traffic, SIGHUP it, and require: zero non-200 responses
# across the swap, the new embedding actually served, and a reload
# recorded on /metrics.
rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle" -addr 127.0.0.1:0 \
    -ready-file "$SMOKE/addr" 2>"$SMOKE/levad_reload.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (reload run) never became ready" >&2
        cat "$SMOKE/levad_reload.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

FEAT_BODY='{"table":"expenses","rows":[{"name":"student_00001","gender":"female","school_name":"school_1"}],"exclude":["total_expenses"]}'
BEFORE=$(curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' -d "$FEAT_BODY")

: > "$SMOKE/codes"
(
    while [ ! -f "$SMOKE/stop_traffic" ]; do
        curl -s -o /dev/null -w '%{http_code}\n' -X POST "http://$ADDR/v1/featurize" \
            -H 'Content-Type: application/json' -d "$FEAT_BODY" >> "$SMOKE/codes" || true
    done
) &
TRAFFIC_PID=$!

# Atomically publish a different embedding (new seed, same dim) into
# the same directory, then hot-reload under the concurrent traffic.
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 8 \
    -out "$SMOKE/embedding2.tsv" -bundle "$SMOKE/bundle"
kill -HUP "$LEVAD_PID"

i=0
until curl -fsS "http://$ADDR/healthz" | grep -q '"generation":2'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "reload never completed" >&2
        cat "$SMOKE/levad_reload.log" >&2
        exit 1
    fi
    sleep 0.1
done

touch "$SMOKE/stop_traffic"
wait "$TRAFFIC_PID"

# Zero dropped or failed requests across the swap.
test -s "$SMOKE/codes"
if grep -qv '^200$' "$SMOKE/codes"; then
    echo "non-200 responses during hot reload:" >&2
    sort "$SMOKE/codes" | uniq -c >&2
    exit 1
fi

# The new embedding is actually serving (seed changed, so features
# must differ), and /metrics shows the reload.
AFTER=$(curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' -d "$FEAT_BODY")
if [ "$BEFORE" = "$AFTER" ]; then
    echo "featurization unchanged after reload" >&2
    exit 1
fi
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_reloads_total 1$'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_bundle_generation 2$'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_reload_failures_total 0$'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_reload_last_unix_seconds [1-9]'

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "hot-reload smoke test passed"

# --- rejected-candidate smoke test ------------------------------------
# Serve a bundle copy, replace its bundle.bin by rename with a copy that
# has one byte flipped, and reload three times: each must be a 500
# reload_rejected, reloads 2 and 3 refused unread ("unchanged since its
# rejection"), all three counted. Then republish a good bundle: the
# very next reload must succeed, with no wait.
MEMO="$SMOKE/bundle_memo"
cp -R "$SMOKE/bundle" "$MEMO"
rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$MEMO" -addr 127.0.0.1:0 \
    -ready-file "$SMOKE/addr" 2>"$SMOKE/levad_memo.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (rejected-candidate run) never became ready" >&2
        cat "$SMOKE/levad_memo.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

cp "$MEMO/bundle.bin" "$MEMO/bundle.bin.flipped"
flip_byte "$MEMO/bundle.bin.flipped" $(($(wc -c < "$MEMO/bundle.bin") / 2))
mv "$MEMO/bundle.bin.flipped" "$MEMO/bundle.bin"

for n in 1 2 3; do
    code=$(curl -s -o "$SMOKE/memo_reload_$n.json" -w '%{http_code}' -X POST "http://$ADDR/admin/reload")
    if [ "$code" != 500 ] || ! grep -q '"reason":"reload_rejected"' "$SMOKE/memo_reload_$n.json"; then
        echo "corrupt reload $n: status $code, want 500 reload_rejected" >&2
        cat "$SMOKE/memo_reload_$n.json" >&2
        exit 1
    fi
done
for n in 2 3; do
    if ! grep -q 'unchanged since its rejection' "$SMOKE/memo_reload_$n.json"; then
        echo "corrupt reload $n was not refused as unchanged" >&2
        cat "$SMOKE/memo_reload_$n.json" >&2
        exit 1
    fi
done
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_reload_failures_total 3$'

"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 \
    -out "$SMOKE/embedding_memo.tsv" -bundle "$MEMO"
code=$(curl -s -o "$SMOKE/memo_reload_fixed.json" -w '%{http_code}' -X POST "http://$ADDR/admin/reload")
if [ "$code" != 200 ] || ! grep -q '"generation":2' "$SMOKE/memo_reload_fixed.json"; then
    echo "reload of the republished bundle: status $code, want 200 at generation 2" >&2
    cat "$SMOKE/memo_reload_fixed.json" >&2
    exit 1
fi

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "rejected-candidate smoke test passed"

# --- stage-cache smoke test -------------------------------------------
# Exercises the content-addressed incremental pipeline through the real
# binary: two identical builds against one cache must be all-stage hits
# with byte-identical output; mutating one CSV must re-tokenize only
# that table (textify=partial) and rebuild only the downstream stages.
CACHE="$SMOKE/stage-cache"

"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/cache_cold.tsv" > "$SMOKE/cache_cold.log"
grep -q 'cache: textify=rebuilt tables=0/3 graph=rebuilt embed=rebuilt' "$SMOKE/cache_cold.log"

"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/cache_warm.tsv" -metrics-dump \
    > "$SMOKE/cache_warm.log" 2> "$SMOKE/cache_warm_metrics.log"
grep -q 'cache: textify=cached tables=3/3 graph=cached embed=cached' "$SMOKE/cache_warm.log"
cmp "$SMOKE/cache_cold.tsv" "$SMOKE/cache_warm.tsv"

# The embed entry is the bundle's symbols and arena section payloads,
# not a TSV.
ls "$CACHE"/embed/*/symbols.bin "$CACHE"/embed/*/arena.bin > /dev/null
if find "$CACHE" -name embedding.tsv | grep -q .; then
    echo "stage cache holds an embedding.tsv" >&2
    exit 1
fi

# -metrics-dump prints the build registry (Prometheus text) on stderr,
# and its cache counters agree with the report line: a fully warm build
# is two hits, zero misses.
grep -q '^# TYPE leva_build_stage_duration_seconds histogram$' "$SMOKE/cache_warm_metrics.log"
grep -q '^leva_builds_total 1$' "$SMOKE/cache_warm_metrics.log"
grep -q '^leva_build_cache_lookups_total{stage="embed",outcome="hit"} 1$' "$SMOKE/cache_warm_metrics.log"

# A flipped byte in a cached entry is a miss for that stage alone: the
# embed stage rebuilds (same output) and republishes its entry, and the
# build after that is all hits again.
ARENA=$(ls "$CACHE"/embed/*/arena.bin)
flip_byte "$ARENA" $(( $(wc -c < "$ARENA") / 2 ))
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/cache_flip.tsv" > "$SMOKE/cache_flip.log"
grep -q 'cache: textify=cached tables=3/3 graph=cached embed=rebuilt' "$SMOKE/cache_flip.log"
cmp "$SMOKE/cache_cold.tsv" "$SMOKE/cache_flip.tsv"
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/cache_reheal.tsv" > "$SMOKE/cache_reheal.log"
grep -q 'cache: textify=cached tables=3/3 graph=cached embed=cached' "$SMOKE/cache_reheal.log"
cmp "$SMOKE/cache_cold.tsv" "$SMOKE/cache_reheal.tsv"

# Mutate a single table: append a copy of the last data row.
LAST_ROW=$(tail -n 1 "$SMOKE/csv/price_info.csv")
printf '%s\n' "$LAST_ROW" >> "$SMOKE/csv/price_info.csv"

"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/cache_mut.tsv" > "$SMOKE/cache_mut.log"
grep -q 'cache: textify=partial tables=2/3 graph=rebuilt embed=rebuilt' "$SMOKE/cache_mut.log"

echo "stage-cache smoke test passed"

# --- worker-count identity smoke test ---------------------------------
# MF's Chebyshev filter runs in column blocks of 8, so at -dim 8 it is
# one block; -dim 12 adds a partial second block. Cold MF builds at one
# and two workers, against separate caches, must publish byte-identical
# files.
for w in 1 2; do
    mkdir -p "$SMOKE/w$w"
    "$SMOKE/bin/leva" embed -data "$SMOKE/csv" -method mf -dim 12 -seed 7 -workers "$w" \
        -cache "$SMOKE/cache_w$w" -out "$SMOKE/w$w/embedding.tsv" \
        -bundle "$SMOKE/w$w/bundle" -index "$SMOKE/w$w/index" > /dev/null
done
cmp "$SMOKE/w1/embedding.tsv" "$SMOKE/w2/embedding.tsv"
cmp "$SMOKE/w1/bundle/bundle.bin" "$SMOKE/w2/bundle/bundle.bin"
cmp "$SMOKE/w1/index/index.bin" "$SMOKE/w2/index/index.bin"

echo "worker-count identity smoke test passed"

# --- ANN index smoke test ---------------------------------------------
# The HNSW index artifact end to end: `leva embed -index` publishes it
# (durably, content-addressed in the stage cache), `leva neighbors`
# queries it from the shell, levad serves it behind /v1/neighbors, and
# one SIGHUP hot-reloads bundle and index together without dropping the
# endpoint.
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/ann_emb.tsv" -bundle "$SMOKE/bundle_ann" \
    -index "$SMOKE/index" > "$SMOKE/ann_embed.log"
grep -q 'saved ANN index' "$SMOKE/ann_embed.log"
test -s "$SMOKE/index/index.bin"
test -s "$SMOKE/index/MANIFEST.json"
# The header's version word (bytes 8-11) is the current format, 4.
test "$(od -An -tu4 -j8 -N4 "$SMOKE/index/index.bin" | tr -d ' ')" -eq 4

# Rebuilding with the same inputs serves the index from the stage cache.
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 7 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/ann_emb2.tsv" -index "$SMOKE/index2" \
    > "$SMOKE/ann_embed2.log"
grep -q 'vectors, cached' "$SMOKE/ann_embed2.log"
cmp "$SMOKE/index/index.bin" "$SMOKE/index2/index.bin"

# Shell query: row entities are keyed "table:rowIdx".
"$SMOKE/bin/leva" neighbors -index "$SMOKE/index" -token "expenses:0" -k 5 \
    > "$SMOKE/neighbors.tsv"
test "$(wc -l < "$SMOKE/neighbors.tsv")" -eq 5

rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index" \
    -addr 127.0.0.1:0 -ready-file "$SMOKE/addr" 2>"$SMOKE/levad_ann.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (ann run) never became ready" >&2
        cat "$SMOKE/levad_ann.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

curl -fsS "http://$ADDR/healthz" | grep -q '"annVectors"'
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
    | grep -q '"neighbors"'
curl -fsS -X POST "http://$ADDR/v1/neighbors" \
    -H 'Content-Type: application/json' \
    -d '{"token":"expenses:0","k":3}' | grep -q '"neighbors"'
# An unknown token is a clean 404, not an error page.
CODE=$(curl -s -o /dev/null -w '%{http_code}' \
    "http://$ADDR/v1/neighbors?token=definitely-not-indexed")
test "$CODE" = "404"
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_ann_index_size [1-9]'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_ann_queries_total'

# Republish bundle AND index with a new seed, hot-reload, and query the
# swapped-in index.
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 9 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/ann_emb3.tsv" -bundle "$SMOKE/bundle_ann" \
    -index "$SMOKE/index" > /dev/null
kill -HUP "$LEVAD_PID"
i=0
until curl -fsS "http://$ADDR/healthz" | grep -q '"generation":2'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "ann hot reload never completed" >&2
        cat "$SMOKE/levad_ann.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
    | grep -q '"neighbors"'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_reloads_total 1$'

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "ann index smoke test passed"

# --- index corruption smoke test --------------------------------------
# A flipped byte in index.bin is refused at startup by name, with the
# bundle beside it intact.
cp -r "$SMOKE/index" "$SMOKE/index_corrupt"
flip_byte "$SMOKE/index_corrupt/index.bin" \
    $(($(wc -c < "$SMOKE/index_corrupt/index.bin") / 2))
refuse_start "$SMOKE/levad_index_corrupt.log" "a corrupt index" \
    -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index_corrupt"
grep -q 'index.bin' "$SMOKE/levad_index_corrupt.log"

# The same index read onto the heap (-mmap=false) is refused as well.
refuse_start "$SMOKE/levad_index_corrupt_heap.log" "a corrupt index with -mmap=false" \
    -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index_corrupt" -mmap=false
grep -q 'index.bin' "$SMOKE/levad_index_corrupt_heap.log"

# A flip in the last byte lands in the tail of the mapped check's last
# hashing chunk.
cp -r "$SMOKE/index" "$SMOKE/index_corrupt_tail"
flip_byte "$SMOKE/index_corrupt_tail/index.bin" \
    $(($(wc -c < "$SMOKE/index_corrupt_tail/index.bin") - 1))
refuse_start "$SMOKE/levad_index_corrupt_tail.log" "an index with its last byte flipped" \
    -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index_corrupt_tail"
grep -q 'index.bin' "$SMOKE/levad_index_corrupt_tail.log"

echo "index corruption smoke test passed"

# --- old-version index refusal test -----------------------------------
# index.bin format versions 2 (float64 vectors) and 3 (4-byte link ids
# at every size) have no reader: a copy of either committed directory
# beside a good bundle must stop levad at startup with an error naming
# index.bin and saying to rebuild the index. The refusal is by
# version, not by the SHA-256 check, so this leg greps for its own
# message.
for v in 2 3; do
    cp -r "internal/ann/testdata/index-v$v" "$SMOKE/index_v$v"
    if "$SMOKE/bin/levad" -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index_v$v" \
        -addr 127.0.0.1:0 2>"$SMOKE/levad_index_v$v.log"; then
        echo "levad served a version-$v index" >&2
        exit 1
    fi
    grep -q 'index.bin' "$SMOKE/levad_index_v$v.log"
    grep -q 'rebuild the index' "$SMOKE/levad_index_v$v.log"
    grep -q "version $v" "$SMOKE/levad_index_v$v.log"
done

echo "version-2 and version-3 index refusal test passed"

# --- wire-surface smoke test -----------------------------------------
# levad's -max-inflight must reach the admission limiter: the limiter
# starts at its ceiling, so /metrics must read exactly 2. And the
# serving surface listed in internal/serve/testdata/deleted_surface.txt
# must stay deleted: no listed route answers 200 to GET or POST, no
# listed key is in /healthz, no listed family or series is on /metrics,
# and a listed flag stops startup as undefined.
DELETED=internal/serve/testdata/deleted_surface.txt
deleted() { sed -n "s/^$1 //p" "$DELETED"; }
test -n "$(deleted route)"

rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle_ann" -addr 127.0.0.1:0 \
    -ready-file "$SMOKE/addr" -max-inflight 2 -queue 0 \
    2>"$SMOKE/levad_wire.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (wire run) never became ready" >&2
        cat "$SMOKE/levad_wire.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

curl -fsS "http://$ADDR/metrics" > "$SMOKE/wire_metrics.txt"
grep -q '^leva_resilience_limit 2$' "$SMOKE/wire_metrics.txt"
curl -fsS "http://$ADDR/healthz" > "$SMOKE/wire_healthz.json"
for key in $(deleted healthz); do
    if grep -q "\"$key\"" "$SMOKE/wire_healthz.json"; then
        echo "/healthz still has a $key key" >&2
        exit 1
    fi
done
for route in $(deleted route); do
    for method in GET POST; do
        code=$(curl -s -o /dev/null -w '%{http_code}' -X "$method" "http://$ADDR$route")
        if [ "$code" = 200 ]; then
            echo "$method $route still answers 200" >&2
            exit 1
        fi
    done
done
for name in $(deleted metric) $(deleted series); do
    if grep -qF "$name" "$SMOKE/wire_metrics.txt"; then
        echo "/metrics still has $name" >&2
        exit 1
    fi
done

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

for flag in $(deleted flag); do
    if "$SMOKE/bin/levad" -bundle "$SMOKE/bundle_ann" -addr 127.0.0.1:0 \
        "-$flag" x 2>"$SMOKE/levad_flag.log"; then
        echo "levad accepted the deleted flag -$flag" >&2
        exit 1
    fi
    grep -q "flag provided but not defined: -$flag" "$SMOKE/levad_flag.log"
done

echo "wire-surface smoke test passed"

# --- old bundle version refusal test ---------------------------------
# This build reads bundle format version 6 alone. The committed
# version-5 bundle (an earlier build's output, float64 arena) must stop
# levad at startup, read or mapped, and `leva bundle info`, with an
# error that names its MANIFEST.json and says to rebuild with `leva
# embed -bundle`; so must the same bundle.bin sealed by a version-6
# manifest, naming bundle.bin. `leva bundle convert`, which upgraded
# such bundles, is gone and must fail.
"$SMOKE/bin/leva" bundle info "$SMOKE/bundle_ann" > "$SMOKE/info_ann.log"
grep -q 'version 6' "$SMOKE/info_ann.log"
grep -q 'bundle.bin' "$SMOKE/info_ann.log"

V5_FIXTURE=internal/core/testdata/v5-quant-dim4
V5_RESEALED="$SMOKE/bundle_v5_resealed"
mkdir "$V5_RESEALED"
cp "$V5_FIXTURE/bundle.bin" "$V5_RESEALED/bundle.bin"
printf '{\n  "formatVersion": 6,\n  "files": [\n    {"name": "bundle.bin", "size": %s, "sha256": "%s"}\n  ]\n}\n' \
    "$(wc -c < "$V5_RESEALED/bundle.bin" | tr -d ' ')" \
    "$(sha256sum "$V5_RESEALED/bundle.bin" | cut -d' ' -f1)" > "$V5_RESEALED/MANIFEST.json"
for case in "$V5_FIXTURE:MANIFEST.json" "$V5_RESEALED:bundle.bin"; do
    dir=${case%:*}
    named="$dir/${case##*:}"
    log="$SMOKE/$(basename "$dir")"
    for mmap in -mmap=false -mmap; do
        if "$SMOKE/bin/levad" -bundle "$dir" "$mmap" -addr 127.0.0.1:0 2>"$log.levad.log"; then
            echo "levad $mmap served $dir" >&2
            exit 1
        fi
        grep -qF "$named" "$log.levad.log"
        grep -q 'leva embed -bundle' "$log.levad.log"
    done
    if "$SMOKE/bin/leva" bundle info "$dir" 2>"$log.info.log"; then
        echo "leva bundle info accepted $dir" >&2
        exit 1
    fi
    grep -qF "$named" "$log.info.log"
    grep -q 'leva embed -bundle' "$log.info.log"
done
grep -q 'records format version 5' "$SMOKE/v5-quant-dim4.levad.log"
grep -q 'file has version 5' "$SMOKE/bundle_v5_resealed.levad.log"
if "$SMOKE/bin/leva" bundle convert -in "$V5_FIXTURE" -out "$SMOKE/bundle_converted" \
    2>"$SMOKE/convert.log"; then
    echo "leva bundle convert still runs" >&2
    exit 1
fi
grep -q 'unknown subcommand "convert"' "$SMOKE/convert.log"
test ! -e "$SMOKE/bundle_converted"

FEAT_BODY='{"table":"expenses","rows":[{"name":"student_00001","gender":"female","school_name":"school_1"}],"exclude":["total_expenses"]}'

# start_levad <log> <name> <levad args...>: start levad in the
# background as $LEVAD_PID, logging to <log>, and wait until it serves
# at $ADDR.
start_levad() {
    log=$1
    name=$2
    shift 2
    rm -f "$SMOKE/addr"
    "$SMOKE/bin/levad" "$@" -addr 127.0.0.1:0 -ready-file "$SMOKE/addr" 2>"$log" &
    LEVAD_PID=$!
    i=0
    while [ ! -s "$SMOKE/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "levad ($name) never became ready" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR=$(cat "$SMOKE/addr")
}

# serve_capture <log> <name> <levad args...>: start levad, record its
# featurize and embedding answers as <name>_features.json and
# <name>_embedding.json, then drain it.
serve_capture() {
    start_levad "$@"
    name=$2
    test "$(curl -sS -o "$SMOKE/${name}_healthz.json" -w '%{http_code}' "http://$ADDR/healthz")" = 200
    curl -fsS -X POST "http://$ADDR/v1/featurize" \
        -H 'Content-Type: application/json' -d "$FEAT_BODY" > "$SMOKE/${name}_features.json"
    curl -fsS "http://$ADDR/v1/embedding/expenses:0" > "$SMOKE/${name}_embedding.json"
    kill -TERM "$LEVAD_PID"
    wait "$LEVAD_PID"
}

serve_capture "$SMOKE/levad_ann.log" ann -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index" -mmap
grep -q '"bundleFormat":6' "$SMOKE/ann_healthz.json"
grep -q '"annVectors":[1-9]' "$SMOKE/ann_healthz.json"

echo "old bundle version refusal test passed"

# --- unsealed bundle refusal test ---------------------------------------
# Only a sealed binary bundle is served. The JSON/TSV layout of format
# versions 0-3, with its version-3 manifest or without one, and a copy
# of a good bundle without MANIFEST.json must each stop levad at startup
# (and `leva bundle info`) with an error naming MANIFEST.json and saying
# to rebuild with `leva embed -bundle`.
JSON_BUNDLE="$SMOKE/bundle_json"
mkdir "$JSON_BUNDLE"
printf '{"formatVersion": 3, "dim": 8}\n' > "$JSON_BUNDLE/config.json"
printf '{}\n' > "$JSON_BUNDLE/textify.json"
cp "$SMOKE/embedding.tsv" "$JSON_BUNDLE/embedding.tsv"
cp -r "$JSON_BUNDLE" "$SMOKE/bundle_json_sealed"
{
    printf '{\n  "formatVersion": 3,\n  "files": [\n'
    sep=''
    for f in config.json textify.json embedding.tsv; do
        printf '%s    {"name": "%s", "size": %s, "sha256": "%s"}' "$sep" "$f" \
            "$(wc -c < "$JSON_BUNDLE/$f" | tr -d ' ')" \
            "$(sha256sum "$JSON_BUNDLE/$f" | cut -d' ' -f1)"
        sep=',
'
    done
    printf '\n  ]\n}\n'
} > "$SMOKE/bundle_json_sealed/MANIFEST.json"
cp -r "$SMOKE/bundle_ann" "$SMOKE/bundle_unsealed"
rm "$SMOKE/bundle_unsealed/MANIFEST.json"

for dir in "$JSON_BUNDLE" "$SMOKE/bundle_json_sealed" "$SMOKE/bundle_unsealed"; do
    if "$SMOKE/bin/levad" -bundle "$dir" -addr 127.0.0.1:0 2>"$dir.levad.log"; then
        echo "levad served $dir" >&2
        exit 1
    fi
    grep -q 'MANIFEST.json' "$dir.levad.log"
    grep -q 'leva embed -bundle' "$dir.levad.log"
    if "$SMOKE/bin/leva" bundle info "$dir" 2>"$dir.info.log"; then
        echo "leva bundle info accepted $dir" >&2
        exit 1
    fi
    grep -q 'MANIFEST.json' "$dir.info.log"
done
# The sealed JSON layout is refused by its manifest's version.
grep -q 'records format version 3' "$SMOKE/bundle_json_sealed.levad.log"

echo "unsealed bundle refusal test passed"

# --- int8 quantization smoke test -------------------------------------
# Quantization is a serving-time transform: `leva embed` publishes the
# same bundle and float index as for any other build (the -quantize
# flag is gone, and the index comes straight from the stage cache),
# levad -quantize quantizes the index it loads and serves neighbors
# from the int8 arena while /v1/featurize stays byte-identical to the
# float daemon, and 10 SIGHUP hot reloads under -mmap leave the
# daemon's bundle and index mapping counts flat (the retired-generation
# munmap regression guard).
if "$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 9 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/quant_emb.tsv" -quantize > "$SMOKE/quant_flag.log" 2>&1; then
    echo "leva embed accepted the removed -quantize flag" >&2
    exit 1
fi
grep -q 'flag provided but not defined: -quantize' "$SMOKE/quant_flag.log"
"$SMOKE/bin/leva" embed -data "$SMOKE/csv" -dim 8 -seed 9 -workers 1 \
    -cache "$CACHE" -out "$SMOKE/quant_emb.tsv" -bundle "$SMOKE/bundle_quant" \
    -index "$SMOKE/index_quant" > "$SMOKE/quant_embed.log"
# The seed-9 index was built by the hot-reload test above, so this
# build reads it from the stage cache instead of rebuilding HNSW.
grep -q 'vectors, cached in' "$SMOKE/quant_embed.log"
"$SMOKE/bin/leva" bundle info "$SMOKE/bundle_quant" > "$SMOKE/info_quant.log"
grep -q 'version 6' "$SMOKE/info_quant.log"
cmp "$SMOKE/index/index.bin" "$SMOKE/index_quant/index.bin"

rm -f "$SMOKE/addr"
"$SMOKE/bin/levad" -bundle "$SMOKE/bundle_quant" -index "$SMOKE/index_quant" \
    -quantize -mmap -addr 127.0.0.1:0 -ready-file "$SMOKE/addr" \
    2>"$SMOKE/levad_quant.log" &
LEVAD_PID=$!
i=0
while [ ! -s "$SMOKE/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "levad (quant run) never became ready" >&2
        cat "$SMOKE/levad_quant.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat "$SMOKE/addr")

curl -fsS "http://$ADDR/healthz" | grep -q '"quantized":true'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_quant_enabled 1$'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_quant_arena_bytes [1-9]'
curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
    | grep -q '"neighbors"'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_quant_queries_total [1-9]'
curl -fsS "http://$ADDR/metrics" | grep -q '^leva_quant_reranked_total [1-9]'

# Featurization is untouched by quantization: the bundle shares its
# float arena with the seed-9 bundle the migration test served, so the
# responses must be byte-identical.
curl -fsS -X POST "http://$ADDR/v1/featurize" \
    -H 'Content-Type: application/json' -d "$FEAT_BODY" > "$SMOKE/quant_features.json"
cmp "$SMOKE/ann_features.json" "$SMOKE/quant_features.json"

# reload_storm <log>: SIGHUP the daemon at $LEVAD_PID 10 times, waiting
# for each reload to finish (generations 2 through 11).
reload_storm() {
    i=0
    while [ "$i" -lt 10 ]; do
        i=$((i + 1))
        kill -HUP "$LEVAD_PID"
        j=0
        until curl -fsS "http://$ADDR/healthz" | grep -q "\"generation\":$((i + 1))"; do
            j=$((j + 1))
            if [ "$j" -gt 100 ]; then
                echo "reload $i never completed" >&2
                cat "$1" >&2
                exit 1
            fi
            sleep 0.1
        done
    done
}

# Reload-leak guard: every SIGHUP remaps the bundle and the index; the
# retired generation must munmap both once its requests drain, so each
# file's mapping count in /proc/<pid>/maps stays exactly where it
# started.
if [ -r "/proc/$LEVAD_PID/maps" ]; then
    BUNDLE_MAPS_BEFORE=$(grep -c 'bundle_quant' "/proc/$LEVAD_PID/maps" || true)
    INDEX_MAPS_BEFORE=$(grep -c 'index_quant' "/proc/$LEVAD_PID/maps" || true)
    if [ "$INDEX_MAPS_BEFORE" -lt 1 ]; then
        echo "levad -mmap did not map $SMOKE/index_quant/index.bin" >&2
        exit 1
    fi
    reload_storm "$SMOKE/levad_quant.log"
    BUNDLE_MAPS_AFTER=$(grep -c 'bundle_quant' "/proc/$LEVAD_PID/maps" || true)
    INDEX_MAPS_AFTER=$(grep -c 'index_quant' "/proc/$LEVAD_PID/maps" || true)
    if [ "$BUNDLE_MAPS_BEFORE" != "$BUNDLE_MAPS_AFTER" ] || [ "$INDEX_MAPS_BEFORE" != "$INDEX_MAPS_AFTER" ]; then
        echo "mmap leak: bundle mappings $BUNDLE_MAPS_BEFORE -> $BUNDLE_MAPS_AFTER, index mappings $INDEX_MAPS_BEFORE -> $INDEX_MAPS_AFTER across 10 reloads" >&2
        grep -E 'bundle_quant|index_quant' "/proc/$LEVAD_PID/maps" >&2 || true
        exit 1
    fi
    # Quantized serving still healthy after the reload storm.
    curl -fsS "http://$ADDR/healthz" | grep -q '"quantized":true'
    curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" \
        | grep -q '"neighbors"'
fi

kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

echo "int8 quantization smoke test passed"

# --- default load path smoke test -------------------------------------
# With no -mmap flag levad maps bundle.bin and index.bin wherever the
# platform supports it, so the reload-leak guard runs on default flags
# too: 10 SIGHUPs must leave each file's mapping count where it started.
# A -mmap=false daemon reads both files onto the heap instead; on the
# same artifacts it must answer /v1/featurize, /v1/embedding and
# /v1/neighbors with byte-identical bodies, and map neither file.

# serve_answers <log> <name> <levad args...>: start levad and record its
# first featurize, embedding and neighbors answers as <name>_*.json; the
# daemon keeps running as $LEVAD_PID at $ADDR.
serve_answers() {
    start_levad "$@"
    name=$2
    curl -fsS -X POST "http://$ADDR/v1/featurize" \
        -H 'Content-Type: application/json' -d "$FEAT_BODY" > "$SMOKE/${name}_features.json"
    curl -fsS "http://$ADDR/v1/embedding/expenses:0" > "$SMOKE/${name}_embedding.json"
    curl -fsS "http://$ADDR/v1/neighbors?token=expenses:0&k=5" > "$SMOKE/${name}_neighbors.json"
    grep -q '"neighbors"' "$SMOKE/${name}_neighbors.json"
}

serve_answers "$SMOKE/levad_default.log" default -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index"
if [ -r "/proc/$LEVAD_PID/maps" ]; then
    BUNDLE_MAPS_BEFORE=$(grep -c "$SMOKE/bundle_ann/bundle.bin" "/proc/$LEVAD_PID/maps" || true)
    INDEX_MAPS_BEFORE=$(grep -c "$SMOKE/index/index.bin" "/proc/$LEVAD_PID/maps" || true)
    if [ "$BUNDLE_MAPS_BEFORE" -lt 1 ] || [ "$INDEX_MAPS_BEFORE" -lt 1 ]; then
        echo "levad with default flags did not map bundle.bin and index.bin" >&2
        exit 1
    fi
    reload_storm "$SMOKE/levad_default.log"
    BUNDLE_MAPS_AFTER=$(grep -c "$SMOKE/bundle_ann/bundle.bin" "/proc/$LEVAD_PID/maps" || true)
    INDEX_MAPS_AFTER=$(grep -c "$SMOKE/index/index.bin" "/proc/$LEVAD_PID/maps" || true)
    if [ "$BUNDLE_MAPS_BEFORE" != "$BUNDLE_MAPS_AFTER" ] || [ "$INDEX_MAPS_BEFORE" != "$INDEX_MAPS_AFTER" ]; then
        echo "mmap leak on default flags: bundle mappings $BUNDLE_MAPS_BEFORE -> $BUNDLE_MAPS_AFTER, index mappings $INDEX_MAPS_BEFORE -> $INDEX_MAPS_AFTER across 10 reloads" >&2
        grep -E 'bundle_ann|/index/' "/proc/$LEVAD_PID/maps" >&2 || true
        exit 1
    fi
fi
kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

serve_answers "$SMOKE/levad_heap.log" heap -bundle "$SMOKE/bundle_ann" -index "$SMOKE/index" -mmap=false
if [ -r "/proc/$LEVAD_PID/maps" ] && grep -qE "$SMOKE/bundle_ann/bundle.bin|$SMOKE/index/index.bin" "/proc/$LEVAD_PID/maps"; then
    echo "levad -mmap=false mapped bundle.bin or index.bin" >&2
    exit 1
fi
kill -TERM "$LEVAD_PID"
wait "$LEVAD_PID"

cmp "$SMOKE/default_features.json" "$SMOKE/heap_features.json"
cmp "$SMOKE/default_embedding.json" "$SMOKE/heap_embedding.json"
cmp "$SMOKE/default_neighbors.json" "$SMOKE/heap_neighbors.json"

echo "default load path smoke test passed"

# --- benchmark-shape bytes --------------------------------------------
# The shape bench/'s embed-restbase workload builds: restbase at scale
# 0.3, seed 1, `leva embed -dim 64 -method mf -index` into an empty
# stage cache (bundle.bin records the cache's stage provenance, so a
# -no-cache build differs). A change
# that promises byte-identical outputs must reproduce these SHA-256
# sums. Like TestMFGolden, the pin holds only on amd64 below GOAMD64=v3,
# where Go never fuses a multiply-add.
if [ "$(go env GOARCH)" = amd64 ] && case "$(go env GOAMD64)" in v1|v2) true ;; *) false ;; esac; then
    "$SMOKE/bin/levagen" -dataset restbase -scale 0.3 -seed 1 -out "$SMOKE/restbase" >/dev/null
    mkdir -p "$SMOKE/restbase_out"
    "$SMOKE/bin/leva" embed -data "$SMOKE/restbase" -dim 64 -method mf -seed 1 -cache "$SMOKE/restbase_cache" \
        -out "$SMOKE/restbase_out/embedding.tsv" -bundle "$SMOKE/restbase_out/bundle" \
        -index "$SMOKE/restbase_out/index" >/dev/null
    (cd "$SMOKE/restbase_out" && sha256sum -c -) <<'SUMS'
8fab2e13e6c1cfe9edf18214527abad039006d8d9586eb3db107b77121ba2390  embedding.tsv
97c292aba82960c1df2f20fe832ac60f02a4abf96d3f1c8b9e0099ee5da204c3  bundle/bundle.bin
b55159d56c9d2c5b3a507382defd2495c4c57e889046cedb11c390ae8667b92f  index/index.bin
SUMS
    echo "benchmark-shape bytes check passed"
fi
