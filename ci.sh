#!/bin/sh
# CI entry point: formatting, vet, build, a fast cancellation gate, a
# library smoke test, and the full test suite under the race detector
# (the tier-1 gate plus race coverage of the one driver's parallel
# chunks, over databases and over in-memory trees' record images alike).
set -eu

cd "$(dirname "$0")"

# gate PATTERN [FLAGS] PACKAGES runs the tests whose names match PATTERN,
# and fails when PATTERN selects none: `go test -run` with no match prints
# "no tests to run" and passes, so a gate whose tests were deleted or
# renamed would go on passing while checking nothing.
gate() {
    pat=$1
    shift
    pkgs=$(printf '%s\n' "$@" | grep -v '^-')
    # shellcheck disable=SC2086 # one package per word
    if ! go test -list "$pat" $pkgs | grep -qE '^(Test|Fuzz|Example)'; then
        echo "go test -run '$pat' selects no test in $pkgs: the gate checks nothing" >&2
        exit 1
    fi
    go test -run "$pat" "$@"
}

# fuzz TARGET PACKAGE [FLAGS] fuzzes TARGET for 10 s, failing when the
# package has no such target.
fuzz() {
    target=$1
    pkg=$2
    shift 2
    if ! go test -list "^$target\$" "$pkg" | grep -qx "$target"; then
        echo "$pkg has no fuzz target $target" >&2
        exit 1
    fi
    go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "$@" "$pkg"
}

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
# Two kernels: phase 1's foldKernel and phase 2's scanKernel. A forward
# scan is phase 2 with its bottom-up states read from the records — a
# property of the attempt, not a third kernel. Keep it two.
kernels=$(ls internal/core/*.go | grep -v '_test\.go$' |
    xargs grep -hoE '^type [A-Za-z0-9_]+Kernel struct' | sort)
if [ "$kernels" != "$(printf 'type foldKernel struct\ntype scanKernel struct')" ]; then
    echo "internal/core declares kernels other than foldKernel and scanKernel:" >&2
    echo "$kernels" >&2
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

# Test-only knobs and entry points stay out of the libraries' APIs: core's
# thresholds are package variables its tests set through export_test.go,
# a state file is never named by the caller, and storage's per-extent
# scans and panicking index constructor
# are gone (tests step BackwardWindows/ForwardWindows over an extent and
# call NewIndex). Keep them gone.
if grep -rnE '\b(NewIndexForTest|FoldBottomUpRange|ScanTopDownRange|StatePath|PruneMinNodes|PruneMinExtent)\b' --include='*.go' --exclude='*_test.go' . >&2; then
    echo "a test-only knob or entry point is back in a library API" >&2
    exit 1
fi

# Every option has a production caller: the kept state file and per-node
# state arrays (KeepStates), storage's InMemory probe, the server's
# batch-size and window knobs, arb serve's -window, -batch and -noprune
# flags, and xmlparse's attribute and whitespace options are gone. A run's
# state file is an anonymous scratch file of the database; the server's
# id cap is a package variable its tests set through export_test.go.
# Keep them gone.
if grep -rnwE 'KeepStates|KeepStateFile|BUStateOf|TDStateOf|StateFile|InMemory|BatchMax|IncludeAttrs' --include='*.go' --exclude-dir=benchmark . >&2; then
    echo "a removed option is back: every option needs a production caller" >&2
    exit 1
fi
if awk '/^func serve\(/,/^}/' cmd/arb/main.go | grep -E '"(window|batch|noprune)"' >&2 ||
    grep -nE 'arb serve .*-(window|batch|noprune)\b' cmd/arb/main.go >&2; then
    echo "arb serve's -window/-batch/-noprune flags are back: the server has no gather window, and pruning is on (arb query -noprune compares)" >&2
    exit 1
fi

# The server runs each miss as its own Exec in one of its execution
# slots: the gather-window coalescer, its EWMA window tuner, K and their
# /stats block and /metrics series are gone, because no workload showed
# gathering winning. Bring gathering back only with a workload where it
# wins. Keep them gone.
if grep -rnE '\b(coalescer|CoalescerStats|windowSeed|windowFloor|windowCeil|batchMax)\b|arb_coalescer_' --include='*.go' . >&2; then
    echo "the server's coalescer, its window tuner or K is back: a miss runs as its own Exec" >&2
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

# One codec, one .idx format, one subtree-index fold: the record stream
# is LZ-compressed or raw, the .idx sidecar is v2 for both (compression
# moves no node), and vstore's fragments are indexed by storage.BuildIndex.
# The DEFLATE codec, the v3 sidecar with its container descriptor and
# vstore's private index heap are gone. Keep them gone.
if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep 'compress/flate' >&2; then
    echo "non-test code imports compress/flate: LZ is the one codec" >&2
    exit 1
fi
if grep -rnE '\b(CodecFlate|ParseCodec|indexMagicV3|ReadIndexFileInfo|containerDesc|entryMinHeap)\b' --include='*.go' . >&2; then
    echo "flate, the v3 sidecar or vstore's private index fold is back" >&2
    exit 1
fi

# One analysis walk per engine (core/analysis.go), on tables of its own:
# prune, subsumption and one-scan read its one plan. The per-verdict walks
# over the engine's shared tables and their locked caches are gone. Keep
# them gone.
if grep -rnE '\b(closeLabels|walkLabels|lockedPruneAnalysis|lockedSelSummary|lockedOneScan|oneScanAnalysis)\b' --include='*.go' . >&2; then
    echo "a per-verdict analysis walk is back: the engine's one analysis (core/analysis.go) decides them all" >&2
    exit 1
fi

# Snapshot pins and atomics are safe by construction, not by analysis.
# Session.pinned pins a snapshot and releases it with a defer on the next
# line, so every return and panic releases it; the same shape holds at
# every .Snapshot() call of internal/vstore and of the packages that
# import it (benchmark/ aside). And the repo uses typed atomics only: the
# compiler forbids plain access to one and go vet's copylocks forbids
# copying one, so no function-style sync/atomic call may appear. The
# snappin and atomicmix analyzers, the CFG layer only snappin used, their
# arblint:acquires/arblint:owns contracts and Session.acquire with its
# release closure are gone. Keep them gone.
if grep -rnE '\b(SnapPin|AtomicMix|BuildCFG|ReachesExit)\b|arblint:(acquires|owns)|func \([a-z]+ \*Session\) acquire\(|\.acquire\(\)' --include='*.go' . >&2; then
    echo "snappin, atomicmix, the lint CFG layer or Session.acquire is back: pin through Session.pinned" >&2
    exit 1
fi
pinpkgs=$(go list -f '{{.Dir}} {{.ImportPath}} {{join .Imports " "}}' ./... |
    awk '{ for (i = 2; i <= NF; i++) if ($i == "arb/internal/vstore") { print $1; break } }' |
    grep -v '/benchmark$')
# shellcheck disable=SC2086 # one directory per word
unpinned=$(for d in $pinpkgs; do ls "$d"/*.go; done | grep -v '_test\.go$' | xargs awk '
    function flush(ok) { if (pending && !ok) print where; pending = 0 }
    FNR == 1 { flush(0) }
    pending { flush(v != "" && $0 ~ ("^[[:space:]]*defer " v "\\.Release\\(\\)[[:space:]]*$")) }
    /\.Snapshot\(\)/ && !/^[[:space:]]*\/\// {
        where = FILENAME ":" FNR ": " $0
        v = ""
        if ($0 ~ /^[[:space:]]*[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:?=[^=]/) {
            v = $0
            sub(/^[[:space:]]+/, "", v)
            sub(/[[:space:]]*:?=.*/, "", v)
        }
        pending = 1
    }
    END { flush(0) }')
if [ -n "$unpinned" ]; then
    echo "a .Snapshot() pin is not released by a defer on the next line:" >&2
    echo "$unpinned" >&2
    exit 1
fi
if grep -rnE '\batomic\.(Add|Load|Store|Swap|CompareAndSwap)[A-Z]' --include='*.go' . >&2; then
    echo "a function-style sync/atomic call is back: use a typed atomic (atomic.Int64, ...)" >&2
    exit 1
fi

# Every file is born a temp. Only internal/storage/file.go creates or
# renames a file: a committed file through storage.WriteFile (a temporary
# beside its path, synced, renamed over it, its directory synced; removed
# on any error), a scratch file as an anonymous handle whose Close removes
# it (DB.CreateScratch, Create's event file). internal/lint writes its
# baseline and vet output itself. The tmpcleanup analyzer, the named aux
# sidecars (ScratchDir, OpenMasks, RemoveScratch, OpenMaskFile) with their
# RAM name table, KeepEvt and the exported SyncDir are gone. Keep them gone.
creators=$({ ls ./*.go; find internal -name '*.go' -not -path 'internal/lint/*'; } |
    grep -v '_test\.go$' | grep -vx 'internal/storage/file.go' |
    xargs grep -nE 'os\.(Create|CreateTemp|MkdirTemp|OpenFile|Rename|WriteFile)\(' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$creators" ]; then
    echo "a file is created or renamed outside internal/storage/file.go (use storage.WriteFile or DB.CreateScratch):" >&2
    echo "$creators" >&2
    exit 1
fi
if grep -rnwE 'TmpCleanup|ScratchDir|OpenMasks|RemoveScratch|OpenMaskFile|KeepEvt|SyncDir|memScratch' --include='*.go' . >&2; then
    echo "tmpcleanup, a named aux sidecar, KeepEvt or the exported SyncDir is back: files are born temps in storage/file.go" >&2
    exit 1
fi

# The library spawns goroutines in one place: the worker pool of the one
# disk driver (internal/core/pardisk.go), whose workers range over a task
# channel the driver closes and which it waits for before returning. The
# goroleak analyzer that proved each spawned goroutine terminates is gone;
# a second go statement in the root package or internal/ must fold into
# the pool instead.
spawns=$({ ls ./*.go; find internal -name '*.go' -not -path '*/testdata/*'; } |
    grep -v '_test\.go$' |
    xargs grep -nE '(^|[{;])[[:space:]]*go[[:space:]]+[A-Za-z_(]' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ "$(printf '%s\n' "$spawns" | grep -c 'internal/core/pardisk.go:')" -ne 1 ] ||
    [ "$(printf '%s\n' "$spawns" | grep -c .)" -ne 1 ]; then
    echo "the library has go statements beyond the worker pool's one (internal/core/pardisk.go):" >&2
    echo "$spawns" >&2
    exit 1
fi

# A session has one source, a versioned store: a tree, a caller's
# database and a plain database are read-only stores of one version, so
# no accessor branches on the kind of source. The tree/database fields,
# the lazily opened tree image and the package-level EmitXML (a
# duplicate of Session.EmitXML) are gone. Keep them gone.
if grep -nwE 'treeOnce|treeDB|treeErr|ownDB' ./*.go >&2 ||
    grep -nE '\bs\.(t|db)\b' session.go version.go >&2 ||
    grep -nE '^func EmitXML\(' arb.go >&2; then
    echo "a session source branch or arb.EmitXML is back: every Session reads one vstore.Store" >&2
    exit 1
fi

# Repo-specific invariants: context threading, lock discipline, reader
# and scratch-file Close/Release, and lock ordering — the full
# four-analyzer suite, gated on the committed baseline: any finding not
# already recorded there fails the build.
go run ./cmd/arblint -baseline .arblint-baseline.json ./...

# The analyzers' own fixtures (want-marker tests, the baseline
# round-trip, and the repo-is-clean driver gates) under the
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
# The paper's example queries each check their answer against a direct
# computation and exit non-zero on a mismatch.
go run ./examples/dtdcheck > /dev/null
go run ./examples/evenpages > /dev/null
go run ./examples/genefinder > /dev/null
go run ./examples/parallelmatch > /dev/null

# Benchmark smoke: the repository's one benchmark builds, runs every
# workload on a tiny corpus and passes its own correctness gate — it
# checks the harness, not the system's speed.
bash benchmark/run.sh -smoke > /dev/null

# arb serve smoke: the built binary starts, answers TMNF and XPath
# queries over HTTP, serves /stats, and drains cleanly on SIGTERM.
gate CLIServe ./...

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
# and the CLI, the shared-scan batch machinery (lanes, product overflow,
# cancellation cleanup), selectivity-aware pruning (analysis admission, v2
# index, gap switches at window edges), and the concurrent query server
# (reentrant handles, concurrent differential vs scalar execution, drain),
# each under the race detector.
gate Cancel -race ./...
gate Batch -race ./...
gate Prune -race ./...
gate Serve -race ./...
# The model-based differential harness (internal/core/model_test.go): its
# seeded table — every document kind, storage form, query kind and
# execution option against the naive, interpreter and STA oracles — under
# the race detector, then a bounded fuzz of its generator.
gate Model -race ./internal/core
fuzz FuzzModel ./internal/core
# Compressed extents: container round-trips, vstore write-policy
# inheritance, the commit table over every storage.WriteFile caller (file
# and directory sync hooks), the LZ decoder
# against its byte-at-a-time oracle, and the block cache's prefix
# decoding; then a bounded fuzz of the decoder.
gate 'Compress|SyncDir|LZ|BlockSource' -race ./...
# Corrupt counts in the .idx sidecar and the .arbm manifest are rejected
# before they are allocated.
gate 'CountBoundsAlloc' -race ./internal/storage ./internal/vstore
fuzz FuzzLZDecompress ./internal/storage
fuzz FuzzOpenContainer ./internal/storage -fuzzminimizetime 100x
# The versioned extent store: manifest fuzz seeds, vstore's patch
# differential against its flat-splice oracle, snapshot isolation/GC, and
# the concurrent read-while-patching server race.
gate 'Patch|Version|Snapshot' -race ./...
# The result cache: unit invariants (budget, eviction, version
# demotion), cached answers under version churn, selection-summary
# subsumption soundness, and the server fast path + admission control.
gate 'ResCache|Subsum' -race ./...
# The engine's one analysis: pinned prune, subsumption, one-scan and
# forward verdicts, the engine left clean by planning, concurrent first use
# of a fresh engine's plan, and forward runs' cancellation, scratch-free
# runs and two-scan fallback.
gate 'OneScan|Forward|SelSum|Analysis' -race ./...

# Full suite (includes the fuzz targets' seed corpora), with shuffled
# test order so inter-test state dependencies cannot hide.
go test -shuffle=on -race ./...
