#!/bin/sh
# CI entry point: formatting, vet, build, a fast cancellation gate, a
# library smoke test, and the full test suite under the race detector
# (the tier-1 gate plus race coverage of the one driver's parallel
# chunks, over databases and over in-memory trees' record images alike).
set -eu

cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# Scan-loop escape gate: the window kernels and per-node callbacks of
# the evaluation drivers and the record loops under them (the window
# passes in storage/window.go, their per-node adapters in db.go) must not
# heap-allocate their encode/decode temporaries — one malloc per node,
# through an io.Writer or io.Reader call (TestWarmRunAllocsDoNotGrowWithN
# is the runtime half of this gate).
escapes=$(go build -gcflags=-m ./internal/core ./internal/storage 2>&1 |
    grep -E '^internal/(core/[a-z_]+|storage/(db|backio|window))\.go:.*moved to heap: (buf|ab)$' || true)
if [ -n "$escapes" ]; then
    echo "scan loops allocate per node again:" >&2
    echo "$escapes" >&2
    exit 1
fi

# Scan-loop ratchet: the one disk driver — scalar runs and batches alike —
# steps storage's window passes with its own two kernels, so internal/core
# calls none of the per-node storage scans. A sequential or special-case
# copy of a loop would add to the count; fold it into the driver instead.
loops=$(ls internal/core/*.go | grep -v '_test\.go$' |
    xargs grep -hE 'storage\.(FoldBottomUp|ScanTopDown)' | grep -vc '^[[:space:]]*//' || true)
if [ "$loops" -gt 0 ]; then
    echo "internal/core calls storage.FoldBottomUp*/ScanTopDown* from $loops places, want 0" >&2
    exit 1
fi
# The batch disk driver and its per-node state vectors are gone: a batch
# is lanes of the scalar driver (core/product.go). Keep them gone.
if grep -rnE '\b(runDiskBatchChunked|takeVec)\b' --include='*.go' . >&2; then
    echo "runDiskBatchChunked/takeVec are back: batches run on the scalar driver's lanes" >&2
    exit 1
fi
# The in-memory drivers are gone too: a tree runs the one driver over its
# record image (storage.OpenTree), scratch files in RAM. Keep them gone.
if grep -rnE '\b(RunBatchTree|TreeBatchOpts|RunBatchContext|emitTreeMarked|ExecTree|SubtreeSizes)\b' --include='*.go' . >&2; then
    echo "an in-memory driver is back: trees run the one driver over their record image" >&2
    exit 1
fi

# A query is a batch of one at every layer: core's scalar aux wiring
# (BatchMember.AuxOutQuery with DiskOpts' Aux* fields), xpath's sidecar
# directory option and the tree-walking index builder are gone — a tree's
# index is BuildIndex over its record image. Keep them gone.
if grep -rnE '\b(AuxOutQuery|AuxDir|BuildTreeIndex)\b' --include='*.go' . >&2; then
    echo "AuxOutQuery/AuxDir/BuildTreeIndex are back: a query is a batch of one" >&2
    exit 1
fi
# And internal/xpath has one pass scheduler, Batch.ExecDisk: one call site
# of core's disk driver. A scalar loop over passes would add a second.
drivers=$(ls internal/xpath/*.go | grep -v '_test\.go$' |
    xargs grep -hE '(core\.RunDisk[A-Za-z]*|\.RunDisk[A-Za-z]*Context|RunTreeContext|\.RunContext)\(' |
    grep -vc '^[[:space:]]*//' || true)
if [ "$drivers" -ne 1 ]; then
    echo "internal/xpath calls core's disk driver from $drivers places, want 1 (Batch.ExecDisk)" >&2
    exit 1
fi

# One measurement stack and one public API: speed numbers come from
# benchmark/ alone, and queries run through Session. The old harness
# (internal/bench, cmd/arbbench and its root BENCH_*.json reports), the
# streaming matcher only it used, and the pre-Session shim files are gone.
# Keep them gone.
if go list ./... | grep -E '^arb/(internal/(bench|stream)|cmd/arbbench)$' >&2; then
    echo "internal/bench, internal/stream or cmd/arbbench is back: measure in benchmark/" >&2
    exit 1
fi
if ls BENCH_*.json >&2 2>/dev/null; then
    echo "a root BENCH_*.json is back: benchmark/ reports are the only numbers" >&2
    exit 1
fi
if grep -rln '//arblint:shims' --include='*.go' . >&2; then
    echo "a //arblint:shims file is back: the public API is Session-only" >&2
    exit 1
fi

# Repo-specific invariants: context threading, lock discipline, temp
# cleanup, reader Close/Release, snapshot-pin release, atomic/plain
# access mixing, goroutine termination, and lock ordering — the full
# eight-analyzer suite, gated on the committed baseline: any finding not
# already recorded there fails the build.
go run ./cmd/arblint -baseline .arblint-baseline.json ./...

# The analyzers' own fixtures (want-marker tests, CFG unit tests, the
# baseline round-trip, and the repo-is-clean driver gates) under the
# race detector: the lint framework shells out to `go list` and builds
# module summaries concurrently with test parallelism.
go test -race ./internal/lint/... ./cmd/arblint

# External analyzers when the toolchain provides them. The CI image has
# no network, so they cannot be fetched or version-pinned here; any
# PATH-installed copy is used, otherwise they are skipped.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
fi

# Smoke: the quickstart example exercises the whole Session/PreparedQuery
# surface (create DB, prepare TMNF and XPath queries, Exec, emit marked
# XML) against its own tiny generated document; batchserve exercises the
# shared-scan PreparedBatch surface the same way; serve starts the HTTP
# query server, queries it over the wire and drains it.
go run ./examples/quickstart > /dev/null
go run ./examples/batchserve > /dev/null
go run ./examples/serve > /dev/null

# Benchmark smoke: the repository's one benchmark builds, runs every
# workload on a tiny corpus and passes its own correctness gate — it
# checks the harness, not the system's speed.
bash benchmark/run.sh -smoke > /dev/null

# arb serve smoke: the built binary starts, answers TMNF and XPath
# queries over HTTP, serves /stats, and drains cleanly on SIGTERM.
go test -run CLIServe ./...

# arb patch smoke: create a database, patch it through the CLI, query
# old-shape vs new-shape, compact, and emit the patched document.
patchdir=$(mktemp -d)
trap 'rm -rf "$patchdir"' EXIT
go build -o "$patchdir/arb" ./cmd/arb
printf '<doc><a><b>x</b></a><c>y</c></doc>' > "$patchdir/doc.xml"
"$patchdir/arb" create "$patchdir/db" "$patchdir/doc.xml" > /dev/null
before=$("$patchdir/arb" query "$patchdir/db" -xpath '//a/b')
"$patchdir/arb" patch "$patchdir/db" -op insert-child -node 1 -xml '<b>z</b>' > /dev/null
after=$("$patchdir/arb" query "$patchdir/db" -xpath '//a/b')
if [ "$before" = "$after" ]; then
    echo "patch smoke: //a/b unchanged after insert-child ($before)" >&2
    exit 1
fi
"$patchdir/arb" compact "$patchdir/db" > /dev/null
compacted=$("$patchdir/arb" query "$patchdir/db" -xpath '//a/b')
if [ "$after" != "$compacted" ]; then
    echo "patch smoke: compaction changed //a/b ($after vs $compacted)" >&2
    exit 1
fi
"$patchdir/arb" cat "$patchdir/db" | grep -q '<b>z</b>' || {
    echo "patch smoke: cat does not show the patched subtree" >&2
    exit 1
}

# Result cache smoke: serve with -rescache, ask the same query twice,
# and require /stats to report a result-cache hit (the second answer
# came from memory, not a scan).
"$patchdir/arb" serve "$patchdir/db" -addr 127.0.0.1:18339 -rescache 16m > "$patchdir/serve.log" 2>&1 &
servepid=$!
for i in $(seq 1 50); do
    grep -q 'serving' "$patchdir/serve.log" && break
    sleep 0.1
done
curl -sf 'http://127.0.0.1:18339/query?q=xpath://a/b' > /dev/null
second=$(curl -sf 'http://127.0.0.1:18339/query?q=xpath://a/b')
hits=$(curl -sf 'http://127.0.0.1:18339/stats' | grep -o '"hits": [0-9]*' | head -1 | grep -o '[0-9]*')
kill "$servepid" 2>/dev/null; wait "$servepid" 2>/dev/null || true
echo "$second" | grep -q '"result_cache": "hit"' || {
    echo "rescache smoke: second answer was not served from the cache" >&2
    exit 1
}
if [ "${hits:-0}" -lt 1 ]; then
    echo "rescache smoke: /stats reports no result-cache hits" >&2
    exit 1
fi

# Compression smoke: create a compressed database through the CLI,
# query it (results must match the raw database), and check that stats
# reports the container.
awk 'BEGIN { printf "<doc>"; for (i = 0; i < 2000; i++) printf "<a><b>x</b></a>"; printf "</doc>" }' \
    > "$patchdir/big.xml"
"$patchdir/arb" create "$patchdir/rawdb" "$patchdir/big.xml" > /dev/null
"$patchdir/arb" create "$patchdir/zdb" -compress "$patchdir/big.xml" > /dev/null
rawq=$("$patchdir/arb" query "$patchdir/rawdb" -xpath '//a/b')
zq=$("$patchdir/arb" query "$patchdir/zdb" -xpath '//a/b')
if [ "$rawq" != "$zq" ]; then
    echo "compress smoke: compressed query ($zq) differs from raw ($rawq)" >&2
    exit 1
fi
"$patchdir/arb" stats "$patchdir/zdb" | grep -q 'compressed: lz codec' || {
    echo "compress smoke: stats does not report the container" >&2
    exit 1
}

# Fast gates: context-cancellation behaviour across storage, the engine
# and the CLI, the shared-scan batch machinery (differential, order
# independence, cancellation cleanup), selectivity-aware pruning
# (analysis admission, v2 index, prune-vs-noprune differentials across
# all strategies), and the concurrent query server (reentrant handles,
# coalescing differential vs scalar execution, drain), each under the
# race detector.
go test -run Cancel -race ./...
go test -run Batch -race ./...
go test -run Prune -race ./...
go test -run Serve -race ./...
# Compressed extents: container round-trips, all-strategy differentials
# on compressed databases, vstore write-policy inheritance, the
# rename-commit directory-sync hooks, the LZ decoder against its
# byte-at-a-time oracle, and the block cache's prefix decoding; then a
# bounded fuzz of the decoder.
go test -run 'Compress|SyncDir|LZ|BlockSource' -race ./...
go test -run '^$' -fuzz FuzzLZDecompress -fuzztime 10s ./internal/storage
go test -run '^$' -fuzz FuzzOpenContainer -fuzztime 10s -fuzzminimizetime 100x ./internal/storage
# The versioned extent store: manifest fuzz seeds, the vstore and
# root-level patch differentials, snapshot isolation/GC, and the
# concurrent read-while-patching server race.
go test -run 'Patch|Version|Snapshot' -race ./...
# The result cache: unit invariants (budget, eviction, version
# demotion), cached/subsumed answers bit-identical to every strategy
# under version churn, selection-summary subsumption soundness, and
# the server fast path + admission control.
go test -run 'ResCache|Subsum' -race ./...

# Full suite (includes the fuzz targets' seed corpora), with shuffled
# test order so inter-test state dependencies cannot hide.
go test -shuffle=on -race ./...
