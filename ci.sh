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
# passes in storage/window.go, the walks stepping them in db.go, index.go
# and emit.go), and creation's per-event record writes (storage/create.go
# and binary.go), must not heap-allocate their encode/decode temporaries —
# one malloc per node, through an io.Writer or io.Reader call
# (TestWarmRunAllocsDoNotGrowWithN is the runtime half of this gate).
escapes=$(go build -gcflags=-m ./internal/core ./internal/storage 2>&1 |
    grep -E '^internal/(core/[a-z_]+|storage/(db|backio|window|index|emit|create|binary))\.go:.*moved to heap: (buf|ab)$' || true)
if [ -n "$escapes" ]; then
    echo "scan loops allocate per node again:" >&2
    echo "$escapes" >&2
    exit 1
fi

# Scan-loop ratchet: every record walk of the library steps storage's
# window passes itself — the one disk driver with its two kernels, the
# index build, XML emission, ReadTree and vstore's patch walks — so no
# non-test file of the root package or internal/ calls the per-node
# generics FoldBottomUp/ScanTopDown (or their range forms). Only their
# own definitions in storage/db.go name them; the benchmark harness is
# their one caller. A new walk steps ForwardWindows/BackwardWindows.
loops=$({ ls ./*.go; find internal -name '*.go'; } | grep -v '_test\.go$' |
    xargs grep -nwE 'FoldBottomUp|ScanTopDown|foldRange|scanRange' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE '^internal/storage/db\.go:[0-9]+:(func (FoldBottomUp|ScanTopDown|foldRange|scanRange)\[|	return (foldRange|scanRange)\(ctx, db, 0, db\.N, (combine|visit)\)$)' || true)
if [ -n "$loops" ]; then
    echo "library code calls the per-node generics; step storage's window passes instead:" >&2
    echo "$loops" >&2
    exit 1
fi
# The walks' old private machinery is gone with them: the holed top-down
# scan only vstore's parent walk used, vstore's chunked record reader with
# its per-record index lookups, its single-record readers (DB.RecordAt
# reads one record) and the parent walk's sentinel. Keep them gone.
if grep -rnwE 'ScanTopDownSkipping|skipSubtrees|readRec|checkedRec|errFoundParent' --include='*.go' . >&2; then
    echo "ScanTopDownSkipping, skipSubtrees, readRec/checkedRec or errFoundParent is back: walks step the window passes" >&2
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
# (BatchMember.AuxOutQuery with DiskOpts' Aux* fields), xpath's AuxDir
# option for its aux files and the tree-walking index builder are gone — a
# tree's index is BuildIndex over its record image. Keep them gone.
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

# One codec, one .idx format, one subtree-index fold: the record stream
# is LZ-compressed or raw, the .idx sidecar is v3 for both (compression
# moves no node), and vstore's fragments are indexed by storage.BuildIndex.
# The DEFLATE codec, the sidecar an earlier format wrote with a container
# descriptor and vstore's private index heap are gone. Keep them gone.
if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep 'compress/flate' >&2; then
    echo "non-test code imports compress/flate: LZ is the one codec" >&2
    exit 1
fi
if grep -rnE '\b(CodecFlate|ParseCodec|indexMagicV3|ReadIndexFileInfo|containerDesc|entryMinHeap)\b' --include='*.go' . >&2; then
    echo "flate, the v3 sidecar or vstore's private index fold is back" >&2
    exit 1
fi

# The subtree index holds each entry's whole record, and the window passes
# serve the gaps it holds whole from it, so an .idx entry carries its
# root's label: the sidecar is v3, and the v2 magic is read only to reject
# a stale file. Nothing writes it. Keep it so.
v2idx=$(find internal -name '*.go' ! -name '*_test.go' | xargs grep -nE 'ARBIDX2|indexMagicV2' |
    grep -vE '^[^:]+:[0-9]+:([[:space:]]*//|[[:space:]]*indexMagicV2[[:space:]]*= "ARBIDX2\\n"$|[[:space:]]*case indexMagicV2:$)' || true)
if [ -n "$v2idx" ]; then
    echo "the v2 .idx magic is used beyond its rejection in ReadIndexFile: sidecars are written as v3" >&2
    echo "$v2idx" >&2
    exit 1
fi
# Records the index holds come from the index: the disk driver takes its
# chunk roots' and the document root's records from the index the chunks
# were cut from (DB.RootRecord), and the window passes serve index-only
# gaps. On a compressed database every DB.RecordAt decodes a block prefix,
# so no non-test file of internal/core calls it. Keep it so.
recordat=$(find internal/core -name '*.go' ! -name '*_test.go' | xargs grep -nE '\.RecordAt\(' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$recordat" ]; then
    echo "internal/core reads single records with DB.RecordAt: take them from the index (DB.RootRecord)" >&2
    echo "$recordat" >&2
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
# it (DB.CreateScratch). The tmpcleanup analyzer, the
# named aux sidecars (ScratchDir, OpenMasks, RemoveScratch, OpenMaskFile)
# with their RAM name table, KeepEvt and the exported SyncDir are gone.
# Keep them gone.
creators=$({ ls ./*.go; find internal -name '*.go'; } |
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

# Creation is one forward pass: storage.EventWriter writes each node's
# record into base.arb's commit temporary as its begin event arrives, and
# sets a flag decided later in its buffer or by one 2-byte WriteAt. The
# temporary event file, the backward pass that read it, BackwardWriter
# and CreateStats' event-file size are gone, and the one non-test caller
# of createTemp is DB.CreateScratch: a run's state file is the library's
# only scratch file. Keep it so.
if grep -rnwE 'buildArbBackwards|BackwardWriter|NewBackwardWriter|evtEnd|EvtBytes' --include='*.go' . >&2; then
    echo "the event file, the backward creation pass or BackwardWriter is back: creation writes the .arb forward" >&2
    exit 1
fi
temps=$(find . -name '*.go' ! -name '*_test.go' | xargs grep -nE 'createTemp\(' |
    grep -vE '^[^:]+:[0-9]+:([[:space:]]*//|func createTemp\()' || true)
if [ "$(printf '%s\n' "$temps" | grep -c .)" -ne 1 ] ||
    [ "$(awk '/^func \(db \*DB\) CreateScratch\(/,/^}/' internal/storage/scratch.go | grep -c 'createTemp(')" -ne 1 ]; then
    echo "non-test code creates scratch files beyond DB.CreateScratch's one createTemp call:" >&2
    echo "$temps" >&2
    exit 1
fi

# A run creates one scratch file, its phase-1 state file. Multi-pass
# queries chain their passes through their aux passes' own selections
# (core.AuxPlanes, one bit a node), so the aux-mask sidecars, their byte
# layout (MaskStride, MaskSize, DiskBatchOpts' AuxInStride and
# AuxOutStride) and phase 2's mask reads and writes (runWriter, auxWindow,
# laneOut) are gone, and non-test code calls DB.CreateScratch from one
# place: the state file in internal/core/pardisk.go. Keep it one.
if grep -rnwE 'MaskStride|MaskSize|AuxInStride|AuxOutStride|runWriter|auxWindow|laneOut' --include='*.go' . >&2; then
    echo "an aux-mask sidecar, its byte layout or phase 2's mask writer is back: aux passes publish their selections as planes" >&2
    exit 1
fi
scratch=$(find . -name '*.go' ! -name '*_test.go' | xargs grep -nE 'CreateScratch\(' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|func )' || true)
if [ "$(printf '%s\n' "$scratch" | grep -c .)" -ne 1 ] ||
    [ "$(printf '%s\n' "$scratch" | grep -c '^\./internal/core/pardisk\.go:')" -ne 1 ]; then
    echo "non-test code creates scratch files beyond the state file's one call in internal/core/pardisk.go:" >&2
    echo "$scratch" >&2
    exit 1
fi

# A run's step caches outlive it: an engine, and a product a batch keeps,
# hold their leader's StepCache between runs (core's warmCache), so a warm
# run starts with dense tables. Every cache a run steps comes from the
# warm-cache helper, takeCache in internal/core/stepcache.go, the one
# non-test caller of newStepCache; a cache built per run elsewhere would
# start every run cold again. Keep it one.
stepcaches=$(find . -name '*.go' ! -name '*_test.go' | xargs grep -nE 'newStepCache\(' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|func )' || true)
if [ "$(printf '%s\n' "$stepcaches" | grep -c .)" -ne 1 ] ||
    [ "$(printf '%s\n' "$stepcaches" | grep -c '^\./internal/core/stepcache\.go:[0-9]*:	return newStepCache(s, names)$')" -ne 1 ] ||
    ! awk '/^func takeCache\(/,/^}/' internal/core/stepcache.go | grep -q 'return newStepCache(s, names)$'; then
    echo "non-test code builds step caches beyond the warm-cache helper's one newStepCache call (takeCache in internal/core/stepcache.go):" >&2
    echo "$stepcaches" >&2
    exit 1
fi

# The library spawns goroutines in one place: the worker pool of the one
# disk driver (internal/core/pardisk.go), whose workers range over a task
# channel the driver closes and which it waits for before returning. The
# goroleak analyzer that proved each spawned goroutine terminates is gone;
# a second go statement in the root package or internal/ must fold into
# the pool instead.
spawns=$({ ls ./*.go; find internal -name '*.go'; } |
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

# The repository's invariants hold by construction, not by analysis:
# internal/lint, its analyzers (ctxflow, closecheck, lockdiscipline,
# lockorder), cmd/arblint and the .arblint-baseline.json it gated on are
# gone, each analyzer replaced by a type or a ratchet below. Keep them gone.
if [ -e internal/lint ] || [ -e cmd/arblint ] || [ -e .arblint-baseline.json ] ||
    go list ./... | grep -E '^arb/(internal/lint|cmd/arblint)' >&2; then
    echo "internal/lint, cmd/arblint or .arblint-baseline.json is back: hold an invariant with a type or a ci.sh ratchet" >&2
    exit 1
fi

# Context threading (was ctxflow): cancellation flows from the public API
# down to every scan loop. The root package turns a caller's nil ctx into
# context.Background() at its entries; internal/ never mints a context,
# and never passes a literal nil as the first of several arguments, the
# context's place in every call that takes one. The one nil is storage's
# contextless creation, BuildIndex(nil, db, 0) in create (pollCtx's
# doc).
libfiles=$({ ls ./*.go; find internal -name '*.go'; } | grep -v '_test\.go$' | sed 's|^\./||')
minted=$(find internal -name '*.go' | grep -v '_test\.go$' |
    xargs grep -nE 'context\.(Background|TODO)\(\)' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$minted" ]; then
    echo "internal/ mints a context: thread the caller's ctx instead" >&2
    echo "$minted" >&2
    exit 1
fi
nilctx=$(find internal -name '*.go' | grep -v '_test\.go$' |
    xargs grep -nE '[A-Za-z0-9_]\(nil,' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE '^internal/storage/create\.go:[0-9]+:[[:space:]]*ix, err := BuildIndex\(nil, db, 0\)$' || true)
if [ -n "$nilctx" ]; then
    echo "internal/ passes a literal nil first (a dropped context?): thread the caller's ctx" >&2
    echo "$nilctx" >&2
    exit 1
fi

# Readers and files are closed (was closecheck). A producer — os.Open,
# storage.Open, NewBackwardReader, DB.CreateScratch — in a non-test file of
# the root package or internal/ is returned to the caller, or its bound
# result v is followed, right after its `if err != nil` block, by
# `defer v.Close()` (or `defer v.Release()`). Otherwise its function is on
# this owner list, which says who closes it; an entry that no longer
# matches fails too, so the list stays exact.
#   session.go:OpenSession              the store: vstore.ReadOnly(db, true)
#   internal/storage/db.go:Open         the DB (its closer); closed on failure
#   internal/storage/db.go:openFrom     the .lab handle, right after ReadNames
#   internal/storage/create.go:create   the caller (returned); closed on failure
#   internal/vstore/store.go:openSegment  the segment (drop, release, Close)
#   internal/vstore/store.go:bootstrap  closed once the index is read, and on failure
#   internal/vstore/store.go:loadNames  each name table, right after ReadNames
closeowners='session.go:OpenSession
internal/storage/db.go:Open
internal/storage/db.go:openFrom
internal/storage/create.go:create
internal/vstore/store.go:openSegment
internal/vstore/store.go:bootstrap
internal/vstore/store.go:loadNames'
# shellcheck disable=SC2086 # one file per word
unclosed=$(awk -v owners="$closeowners" '
    BEGIN { n = split(owners, o, "\n"); for (i = 1; i <= n; i++) owner[o[i]] = 0 }
    function report() {
        if ((FILENAME ":" fn) in owner) owner[FILENAME ":" fn]++
        else print where
    }
    FNR == 1 { state = 0; fn = "" }
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) }
    state == 2 { if ($0 == ind "}") state = 3; next }
    state == 3 {
        if ($0 !~ ("^[[:space:]]*defer " v "\\.(Close|Release)\\(\\)[[:space:]]*$")) report()
        state = 0
    }
    state == 1 {
        state = 0
        if ($0 ~ ("^" ind "if err != nil \\{[[:space:]]*$")) { state = 2; next }
        report()
    }
    /(os\.Open|storage\.Open|[^.A-Za-z0-9_]Open|NewBackwardReader|CreateScratch)\(/ &&
        !/^[[:space:]]*\/\// && !/^func / && !/return [A-Za-z_.]*(Open|NewBackwardReader|CreateScratch)\(/ {
        where = FILENAME ":" fn ":" FNR ": " $0
        ind = $0; sub(/[^[:space:]].*/, "", ind)
        if ($0 ~ /^[[:space:]]*(if )?[A-Za-z_][A-Za-z0-9_]*, err :?= /) {
            v = $0; sub(/^[[:space:]]*(if )?/, "", v); sub(/,.*/, "", v)
            state = ($0 ~ /; err != nil \{[[:space:]]*$/) ? 2 : 1
        } else report()
    }
    END { for (k in owner) if (owner[k] == 0) print k ": on the owner list but opens nothing unclosed" }
' $libfiles)
if [ -n "$unclosed" ]; then
    echo "a reader or file is not closed by a defer after its error check (close it, or list its owner in ci.sh):" >&2
    echo "$unclosed" >&2
    exit 1
fi

# Shared state sits behind its lock by construction (was lockdiscipline):
# internal/guard's Mutex[T] and RWMutex[T] reach their value only inside an
# accessor's callback, so an unguarded access cannot be written. Library
# code declares no other mutex — a worker's results go to per-task slots
# the driver merges after the join — and no Go file carries the retired
# analyzers' `guarded by:` annotations or arblint: directives.
# shellcheck disable=SC2086 # one file per word
mutexes=$(printf '%s\n' $libfiles | grep -v '^internal/guard/' |
    xargs grep -nE 'sync\.(RW)?Mutex\b' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$mutexes" ]; then
    echo "a sync.Mutex/RWMutex outside internal/guard: put the state it guards in a guard.Mutex[T]" >&2
    echo "$mutexes" >&2
    exit 1
fi
if grep -rnE 'guarded by:|arblint:' --include='*.go' . >&2; then
    echo "a guarded-by annotation or arblint: directive is back: guard the state with internal/guard" >&2
    exit 1
fi
# Lock order (was lockorder): no accessor callback takes a second lock
# (TestLockNesting, a syntactic check), the guard types work under the race
# detector, and the orders that go through calls, which guard's package
# doc lists, are exercised by the race suite.
gate 'Guard|LockNesting' -race ./...

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
