#!/usr/bin/env bash
# CI gate: docs link check, static checks (gofmt, go vet, a gate that
# no non-test file imports encoding/gob — the value codec in
# internal/types is the one serialization —, a gate that no non-test
# file under internal/ or driver/ reads the process environment, a gate
# that no non-test engine file multiplies or adds shares through the
# dividing scalar operators — share arithmetic runs as Montgomery row
# programs —, a gate that the non-test goroutines under internal/ are
# exactly the allow-listed four, a gate that only rowPool, batchRows
# and the spill scheduler read the engine's worker pool, and a gate that
# only FlushHelperPowerHits writes the memo's hit counter, that only
# PowerTable.Lookup (and the reset) writes its miss counter and that the
# memo renders no helper to bytes, a gate that every comb table the
# secure package builds covers RowIDBits and no wider, and a gate that
# the Options fields, DSN keys and sdb-server flags are exactly the
# allow-listed configuration surface, and a gate that every exported
# name of the root module has a non-test caller or an allow-listed
# reason), the full test
# suite, the race
# detector over every package (the chunked parallel engine/proxy paths,
# the pull-on-demand result path from engine to decrypting cursor, the
# parallel spilled-partition scheduler and the secure helper-power memo
# are exercised by dedicated concurrency tests), a forced-tiny-budget spill regression pass and a planner-off
# differential pass (both re-runs of the engine suite selected through its
# TestMain, each proving its mode took effect), a
# race-detected pool-choice pass (pool marks in TPC-H plans, the secure
# serial-vs-parallel differential, one state table per GROUP BY, plain
# and secure), a
# race-detected MVCC isolation pass (torn-read, no-stall,
# prefix-consistency and randomized mixed-workload harnesses, and the
# proxy's rotation-window and key-lock cancellation tests), a
# race-detected concurrent spill pass, a
# race-detected crash-recovery/durability pass (kill-point differential
# harness + SIGKILL subprocess test), a race-detected Montgomery-core
# pass (shared MontCtx / helper-power memo / per-column-key table memo
# under concurrent workers, plus the item-key differential
# against big.Int.Exp), a race-detected pass over the proxy's row-decrypt
# kernel (hostile-SP results incl. forged shares whose plaintext must not
# reach the error; the half-width vs full-width decrypt differential and
# kernel selection; one column key's two tables first touched by racing
# encrypts and decrypts), a race-detected row-program pass (share trees vs
# the scalar secure operators, share SUM resident / spilled / serial /
# parallel, malformed UDF calls refused at plan time, key-rotation UPDATE
# shapes serial and chunked), a race-detected
# column-pruning / composite-key pass,
# a race-detected FROM/WHERE planner pass (plan shapes in every FROM syntax,
# TPC-H JOIN vs comma plan equivalence plaintext and rewritten, the
# plain-spill spill pins, ON-scope error parity, a 70-leaf FROM, the
# empty-build leak check), a 100x flake guard over the proxy's
# constant-hiding test,
# a race-detected frame / codec / hello pass (the one value codec on its
# three paths — run file, WAL record, wire frame — plus the exact frame
# cap, lying length prefixes, foreign peers, the reserved request kinds
# 0, 2, 3 and 6 and an SP's empty frame before end of stream), the
# bench/ module's own vet and smoke test, a race-detected
# concurrent-serving pass (multi-driver storm against an
# admission-limited, pool-budgeted server; the exact backpressure bound,
# cursor teardown before the ack and the round trips of one statement), a
# live-server smoke that curls /healthz, asserts nonzero /metrics counters
# and the exact request counts of one shell session, and a short fuzz
# smoke over every fuzz target (parser, proxy
# pipeline incl. the COUNT() crasher seed, the value codec,
# wire frame decoding, mutated response frames through a live decrypting
# cursor, WAL records, Montgomery multiply/exponentiate and the item-key tables vs
# math/big, half-width vs full-width decrypt, composite hash-key injectivity,
# share row programs vs the scalar secure operators).
#
# Usage: scripts/ci.sh [-short]
#   -short   skip the slow end-to-end suites (integration differential,
#            rewriter differential fuzz) and the fuzz smoke — useful for
#            pre-commit runs.
set -euo pipefail
cd "$(dirname "$0")/.."

SHORT_FLAG=""
if [[ "${1:-}" == "-short" ]]; then
  SHORT_FLAG="-short"
fi

echo "== docs link check"
# Every relative link in README.md and docs/*.md must resolve to a real
# file (anchors and external URLs are skipped), so the architecture tour
# and its cross-references cannot rot silently.
BROKEN=0
for f in README.md docs/*.md; do
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="$(dirname "$f")/${link%%#*}"
    if [[ ! -e "$target" ]]; then
      echo "broken link in $f: $link"
      BROKEN=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//')
done
if [[ "$BROKEN" -ne 0 ]]; then
  exit 1
fi

echo "== gofmt"
UNFMT=$(gofmt -l .)
if [[ -n "${UNFMT}" ]]; then
  echo "gofmt needed on:" ${UNFMT}
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== one serialization (no encoding/gob outside tests)"
# Wire frames, run files, WAL records and snapshots all carry the value
# codec of internal/types. gob was the second serialization until PR 15;
# tests still use it to impersonate a wire v0/v1 peer, nothing else may.
if grep -rl '"encoding/gob"' --include='*.go' . | grep -v _test.go; then
  echo "encoding/gob imported by the non-test files above"
  exit 1
fi

echo "== the library does not read the environment"
# Options structs configure the engine, the proxy and the driver; the two
# deployment paths with an environment default (SDB_DATA_DIR, SDB_SPILL_DIR)
# get it as a flag default in cmd/sdb-server, nowhere else.
if grep -rn 'os\.Getenv' internal driver --include='*.go' | grep -v _test.go; then
  echo "os.Getenv called by the non-test files above"
  exit 1
fi

echo "== share arithmetic stays in row programs (no per-row division in the engine)"
# The engine compiles every SDB UDF tree into a Montgomery row program
# (internal/engine/shareprog.go): one REDC per multiply and key update,
# constants folded at plan time, SUM by limb add. The scalar operators
# below each pay a big.Int division per call; only tests (as the oracle)
# may call them from the engine package.
if grep -nE 'secure\.(Multiply|AddShares|SubShares)\(|bigmod\.Mul\(' internal/engine/*.go | grep -v '_test.go:'; then
  echo "the non-test engine files above call a dividing scalar share operator"
  exit 1
fi

echo "== goroutines under internal/ are the allow-listed four"
# Every layer of the result path computes a batch on the goroutine that
# asks for it: the server's cursor, the proxy's decrypting cursor and the
# spill run-file reader each ran a read-ahead goroutine until measurement
# showed it did not pay. A new goroutine in library code is a mechanism to
# measure first, then add here with its reason. The four: one session per
# admitted connection and the rejection frame of an over-limit one
# (server), the /metrics HTTP server, and the parallel pool's workers.
GO_STMTS=$(grep -rnE '^[[:space:]]*go [[:alnum:]_(]' internal --include='*.go' | grep -v '_test\.go:' \
  | sed -E 's/:[0-9]+:[[:space:]]*/: /' | sort)
GO_ALLOWED=$(printf '%s\n' \
  'internal/parallel/parallel.go: go func() {' \
  'internal/server/metrics.go: go srv.Serve(l)' \
  'internal/server/server.go: go s.handle(conn, sess)' \
  'internal/server/server.go: go s.rejectConn(conn, max)' | sort)
if [[ "${GO_STMTS}" != "${GO_ALLOWED}" ]]; then
  echo "non-test go statements under internal/ differ from the allow-list (< allowed, > found):"
  diff <(echo "${GO_ALLOWED}") <(echo "${GO_STMTS}") || true
  exit 1
fi

echo "== the worker pool is handed out where secure arithmetic runs"
# An operator gets the engine's worker pool only when its expressions
# compiled to a row program or a masked reveal (Engine.rowPool, chosen at
# plan time); everything else runs on the calling goroutine. The pool's
# other readers are the batch size (batchRows) and the spill scheduler's
# worker count (newQuerySpill). A new reader elsewhere is a second place
# deciding where rows run.
POOL_READS=$(awk 'FNR==1{f=""} /^func /{ s=$0; sub(/^func (\([^)]*\) )?/, "", s); sub(/[^A-Za-z0-9_].*/, "", s); f=s }
  /(^|[^A-Za-z0-9_])e\.pool([^A-Za-z0-9_]|$)/ && !/e\.pool = / { print FILENAME ": " f }' \
  $(ls internal/engine/*.go | grep -v '_test\.go$') | sort -u)
POOL_ALLOWED=$(printf '%s\n' \
  'internal/engine/engine.go: rowPool' \
  'internal/engine/spill.go: newQuerySpill' \
  'internal/engine/stream.go: batchRows' | sort)
if [[ "${POOL_READS}" != "${POOL_ALLOWED}" ]]; then
  echo "functions reading the engine's worker pool differ from the allow-list (< allowed, > found):"
  diff <(echo "${POOL_ALLOWED}") <(echo "${POOL_READS}") || true
  exit 1
fi

echo "== helper-power memo: hits counted by the caller, misses by Lookup alone"
# A memo hit is an atomic load and a limb compare: no byte key, no lock
# and no write to memory that another worker reads. Row-program frames
# and ApplyToken calls count their own hits and publish them through one
# function, FlushHelperPowerHits, once per chunk or call; a second writer
# of powers.hits is a shared cache line back on the hit path. Lookup is
# the memo's one entry point, so it is the one function that counts a
# miss (ResetHelperPowers zeroes the counter); a second writer of
# powers.misses is a second path to the memo. The memo key is the
# helper's limbs, so its files render no helper to bytes.
HITS_WRITES=$(awk 'FNR==1{f=""} /^func /{ s=$0; sub(/^func (\([^)]*\) )?/, "", s); sub(/[^A-Za-z0-9_].*/, "", s); f=s }
  /hits\.(Add|Store|Swap|CompareAndSwap)\(/ { print FILENAME ": " f }' \
  $(ls internal/secure/*.go | grep -v '_test\.go$') | sort -u)
if [[ "${HITS_WRITES}" != 'internal/secure/powmemo.go: FlushHelperPowerHits' ]]; then
  echo "functions writing powers.hits differ from the one flush (found):"
  echo "${HITS_WRITES}"
  exit 1
fi
MISS_WRITES=$(awk 'FNR==1{f=""} /^func /{ s=$0; sub(/^func (\([^)]*\) )?/, "", s); sub(/[^A-Za-z0-9_].*/, "", s); f=s }
  /misses\.(Add|Store|Swap|CompareAndSwap)\(/ { print FILENAME ": " f }' \
  $(ls internal/secure/*.go | grep -v '_test\.go$') | sort -u)
MISS_ALLOWED=$(printf '%s\n' \
  'internal/secure/powmemo.go: Lookup' \
  'internal/secure/powmemo.go: ResetHelperPowers' | sort)
if [[ "${MISS_WRITES}" != "${MISS_ALLOWED}" ]]; then
  echo "functions writing powers.misses differ from the allow-list (< allowed, > found):"
  diff <(echo "${MISS_ALLOWED}") <(echo "${MISS_WRITES}") || true
  exit 1
fi
if grep -n 'FillBytes' internal/secure/powmemo.go internal/secure/batch.go; then
  echo "the helper-power memo renders a helper to bytes above"
  exit 1
fi

echo "== comb tables in internal/secure cover RowIDBits"
# Every exponent the DO raises a fixed base to is a row id: g to one for a
# row helper, g^x to one for an item key. So every comb table the secure
# package builds covers RowIDBits — 9 digit rows — and a modulus-wide one
# (9.5 MB for g at 2048 bits) is a table nothing walks.
FB_WIDE=$(grep -n 'bigmod\.NewFixedBase(' $(ls internal/secure/*.go | grep -v '_test\.go$') \
  | grep -vE 'bigmod\.NewFixedBase\(.*, RowIDBits\)' || true)
if [[ -n "${FB_WIDE}" ]]; then
  echo "comb tables in internal/secure not built RowIDBits wide:"
  echo "${FB_WIDE}"
  exit 1
fi

echo "== the configuration surface is the allow-listed knobs"
# What a deployment can set: the exported fields of the engine, proxy and
# WAL Options, the driver's DSN keys and sdb-server's flags. Batch, frame
# and plan-cache sizes left this surface once each had one production
# value (engine.Options.ChunkSize stays as the tests' way to shrink
# batches). A new knob is a new thing to test and document: add it here,
# with the change that needs it.
CONFIG_SURFACE=$(
  for f in internal/engine/engine.go internal/proxy/proxy.go internal/wal/wal.go; do
    awk -v pkg="$(basename "$(dirname "$f")")" '
      /^type Options struct \{/ { on = 1; next }
      on && /^\}/ { on = 0 }
      on && /^\t[A-Z][A-Za-z0-9_]* / { print pkg ".Options." $1 }' "$f"
  done
  awk '
    /^var dsnKeys/ { on = 1; next }
    on && /^\}/ { on = 0 }
    on {
      line = $0
      while (match(line, /"[a-z_]+": *(\{|true|false)/)) {
        tok = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
        name = tok; sub(/^"/, "", name); sub(/".*/, "", name)
        if (tok ~ /\{$/) scheme = name; else print "dsn " scheme "://" name
      }
    }' driver/driver.go
  grep -oE 'flag\.[A-Za-z]+\("[^"]+"' cmd/sdb-server/main.go | sed -E 's/.*\("/sdb-server -/; s/"$//'
)
CONFIG_SURFACE=$(echo "${CONFIG_SURFACE}" | sort)
CONFIG_ALLOWED=$(printf '%s\n' \
  'engine.Options.Parallelism' 'engine.Options.ChunkSize' 'engine.Options.MemBudgetRows' \
  'engine.Options.SpillDir' 'engine.Options.BudgetPool' 'engine.Options.Planner' \
  'proxy.Options.Parallelism' 'proxy.Options.StatePath' \
  'wal.Options.Fsync' 'wal.Options.CheckpointEvery' \
  'dsn mem://bits' 'dsn mem://parallel' 'dsn mem://mem_budget' 'dsn mem://data_dir' \
  'dsn mem://fsync' 'dsn mem://checkpoint_every' \
  'dsn tcp://secret' 'dsn tcp://parallel' \
  'sdb-server -listen' 'sdb-server -public' 'sdb-server -parallel' 'sdb-server -mem-budget' \
  'sdb-server -spill-dir' 'sdb-server -data-dir' 'sdb-server -checkpoint-every' 'sdb-server -fsync' \
  'sdb-server -max-sessions' 'sdb-server -max-stmts' 'sdb-server -global-budget' \
  'sdb-server -metrics-addr' 'sdb-server -max-frame' 'sdb-server -idle-timeout' \
  'sdb-server -write-timeout' | sort)
if [[ "${CONFIG_SURFACE}" != "${CONFIG_ALLOWED}" ]]; then
  echo "configuration surface differs from the allow-list (< allowed, > found):"
  diff <(echo "${CONFIG_ALLOWED}") <(echo "${CONFIG_SURFACE}") || true
  exit 1
fi

echo "== the exported surface is what the product calls"
# Every exported top-level name and method declared in a non-test file of
# the root module is mentioned by a non-test file other than its
# declaration (bench/ counts), or is on the allow-list in
# internal/surface/surface_test.go with its reason; an allow-list entry
# that is no longer needed fails too. A name only tests call belongs in
# its package's _test.go files. The test also runs under go test below.
go test -count=1 -run 'TestExportedSurfaceIsCalled' ./internal/surface

echo "== go build"
go build ./...

echo "== go test"
go test ${SHORT_FLAG} ./...

echo "== go test -race"
go test -race ${SHORT_FLAG} ./...

echo "== engine suite under a forced tiny spill budget"
# Re-run the whole engine test suite with a deliberately tiny per-query
# memory budget: every blocking operator in every existing test is forced
# through its spill path (Grace join, spilled aggregation, external merge
# sort), so each engine test doubles as a spill regression test. The
# spill paths are exactly order-preserving, which is why identical
# assertions must keep passing. (The TPC-H differential additionally runs
# a forced-spill execution mode inside the normal go test pass above.)
# The flag is read by the package's TestMain (main_test.go) and reaches
# every engine built without a budget of its own;
# TestForcedModeTookEffect fails the run if it did not.
go test ${SHORT_FLAG} ./internal/engine -args -engine.mem-budget=48

echo "== engine suite with the planner pass disabled"
# Re-run the engine suite with the planner off: every query falls back to
# the naive AST-shaped tree (nested-loop comma joins, top-level WHERE
# filter, no pushdown, no build-side swap, no map pre-sizing). The planner
# is a pure plan-shape rewrite — results and row order must be identical
# — so every engine test doubles as a planner differential. Tests that
# assert planner-produced plan shapes pin Options.Planner explicitly and
# are unaffected. Same TestMain hook, same proof: the run fails if an
# engine built with zero Options still pushed a filter below its join.
go test ${SHORT_FLAG} ./internal/engine -args -engine.planner=off

echo "== pool choice under the race detector"
# Which operators get the worker pool, and what that changes: the TPC-H
# plan signatures mark exactly the operators doing secure arithmetic (none
# over the plaintext schema); secure filters, share projections, encrypted
# and residual joins (resident and Grace-spilled), a non-equi join, sdb_min /
# sdb_max per group and DISTINCT answer through a proxy the same on one
# worker and on eight; and a GROUP BY keeps one state table, so its groups
# weigh once against the budget — plain (serial) and secure (a share SUM
# whose two workers' scratch tables the one table absorbs every batch).
go test -race -count=1 -run 'TPCHPoolMarks|ParallelSerialEquivalenceSecure|AggregationStateCountedOnce' \
  ./internal/engine

echo "== MVCC isolation harness under the race detector"
# The snapshot-isolation proof suite with the race detector on and fresh
# interleavings (-count=1): torn-read detection across the direct,
# cursor and served (prepared stream + fused) read paths, the no-stall test
# (a SELECT must complete while a bulk write is held mid-commit), the
# prefix-consistency join test, the 100+-seed randomized mixed-workload
# differential (readers may only observe states of the writer's serial
# history, in order), and the serving-layer mixed storm (readers stream
# decrypted rows while keys rotate and bulk inserts land).
go test -race -count=1 ${SHORT_FLAG} -run 'Snapshot|Mixed|MVCC' \
  ./internal/engine ./internal/server
# The proxy's half of isolation: an INSERT, and a one-shot and a prepared
# SELECT (point and range), held inside a key rotation's window — after the
# SP committed the re-keying UPDATE, before the proxy published the key —
# in-process and through a server.Client. The per-table key lock must
# keep every acknowledged row and every answer right. The same statements
# cancelled while they wait on a parked rotation's key lock must return
# context.Canceled at once and leave no lock behind (nor the locks of the
# tables they took before), and a waiting exclusive taker holds back new
# shared ones; twenty fresh runs give the race detector interleavings
# around it.
go test -race -count=20 -run 'DuringRotation|CancelWhileWaitingOnRotation|KeyLock' ./internal/proxy

echo "== concurrent spill suite under the race detector"
# The spill differential and parallel-schedule suites again, with the
# race detector on and a forced tiny budget. The suites build their
# engines with Parallelism 2 or 4 spelled out (spilled work is scheduled on
# the pool's workers), so every Grace partition pair, aggregation
# partition merge and run pre-merge runs concurrently against the shared
# budget on any runner, and reservation accounting and run-file lifecycles
# are checked under real interleavings, not just the serial schedule.
go test -race ${SHORT_FLAG} -run 'Spill|ForcedMode' ./internal/engine -args -engine.mem-budget=48

echo "== crash-recovery / durability suite under the race detector"
# The WAL package's kill-point differential harness (a simulated crash at
# every record boundary, torn and CRC-corrupted mid-record writes, after a
# checkpoint, and inside a checkpoint — old log beside a cut or complete
# temp file of the new one, new log beside the old — with decrypted
# answers compared against the committed prefix, and a log cut inside its
# base section refused with every file left as it was), the SIGKILL
# subprocess test, the refusal of the previous on-disk format, and the
# fsync-policy and debris unit tests — with the race detector on, so the
# store's lock and the engine's checkpoint locking are checked under real
# interleavings.
go test -race -count=1 ./internal/wal

echo "== Montgomery core under the race detector"
# The Montgomery arithmetic layer's concurrency tests: one shared MontCtx
# driven by parallel goroutines with private scratch buffers — the
# sharing discipline the engine's row programs and the proxy's parallel
# decrypt path rely on. The helper-power memo tests ride along:
# concurrent token applications over overlapping helpers fill, hit and
# evict one process-wide memo (and the differential against
# big.Int.Exp runs cold, warm and under a forced tiny bound), and the
# generator's comb table is evaluated from parallel goroutines. So do the
# per-column-key item-key tables: the differential of the table path
# against m · big.Int.Exp(g, r·x mod φ, n) at every row-id width and
# modulus shape, the memo-bound test, and first-touch table builds raced
# from parallel workers. (The half-vs-full decrypt differential runs in
# the next stage.)
go test -race ${SHORT_FLAG} -run 'Mont|Redc|PowMemo|FixedBase|ItemKey|KeyTable|Decryptor' -skip 'HalfVsFull' ./internal/bigmod ./internal/secure
# The memo's tables are read without a lock: readers race inserts, the
# copy-and-publish growth of a table from empty and its eviction under a
# tiny bound. Ten fresh runs give the race detector more interleavings.
go test -race -count=10 -run 'PowMemo' ./internal/secure

echo "== proxy row-decrypt kernel: hostile SP + table builds under the race detector"
# The proxy decrypts what an untrusted SP sends: share cells without
# payload, shares outside [0, n), mangled row-id and AVG-count cells and
# short rows must all end in an error — on the streaming and the
# materialising path — never a panic or a wrong answer; a well-formed
# share that is not the stored one must fail without its plaintext (a
# residue of share · item key) in the error text. The race test has
# parallel decrypt chunks of several cursors build a rotated column's
# tables on first touch while another column keeps rotating. The
# allocation gate decrypts a 512-row batch on parallel chunks that write
# one shared value slab (its exact allocation counts — zero per row id,
# one constant per batch — are checked by the plain go test run).
go test -race -count=1 -run 'HostileSP|DecryptRaces|JoinProduct|KeyTableStats|RowDecryptAllocs' ./internal/proxy
# The kernel underneath decrypts modulo p₁ when the secret can host the
# decrypt domain there (secure/params.go): which secrets take which kernel
# (and keep it through MarshalJSON), the half-width kernel against the
# full-width oracle over every key shape, domain edge and row-id width at
# 288..2048 bits, the bytes that leave the DO against the parent's, one
# column key first touched by encrypts (its table modulo n) and decrypts
# (its table modulo p₁) at once, and g's table at the RowIDBits width.
go test -race -count=1 ${SHORT_FLAG} -run 'HalfVsFull|BothKernels|KernelSelection|LeavesTheDO|ErrorsRedacted|GeneratorTable' ./internal/secure

echo "== share row programs under the race detector"
# One compiled program per operator is shared by every chunk worker, each
# evaluating it in a pooled frame whose key-update registers alias the
# process-wide helper-power memo. The differential against the scalar
# secure operators (every modulus shape, key updates of both exponent
# signs and Base tokens, helpers without inverses, malformed rows), the
# share SUM over unscaled residues resident, spilled, serial and parallel,
# the eleven malformed UDF calls that once crashed the SP, and the
# key-rotation UPDATE shapes (whole table, WHERE, mixed SET list, nested
# sdb_mul; exponents of every sign) serial and on two workers in four-row
# chunks, plus a rotation that fails in a middle chunk and must leave the
# table, the WAL and the goroutine count as they were.
go test -race -count=1 -run 'ShareProgram|SecureSum|Malformed|KeyUpdate' ./internal/engine

echo "== column pruning + composite keys under the race detector"
# Scans keep only the columns the statement names, and join/group/DISTINCT
# keys are one binary encoding built in per-chunk scratch buffers inside
# parallel workers. The pruning tests pin what scans keep (ExecStats
# ScanCols/TableCols), that errors and `SELECT *` are word for word what
# the full-width planner-off schemas produce, and a rewritten query naming
# only the hidden helper column; the key tests pin injectivity (the fuzz
# target's seed corpus runs here as a unit test) on the paths that share
# the scratch buffers: hash join, GROUP BY, DISTINCT.
go test -race -count=1 -run 'Prune|GroupKey|KeyEncoding|KeyCollisions' ./internal/engine ./internal/types

echo "== FROM/WHERE planner under the race detector"
# One planner assembles FROM for comma joins, JOIN … ON and mixtures. The
# shape tests pin where every conjunct lands (they pin Options.Planner, so
# the planner-off re-run above runs them unchanged — planner-off is the
# AST-shaped half of each expectation); the TPC-H tests hold every runnable
# statement, plaintext and proxy-rewritten, to the plan of its comma form
# and pin the plain-spill numbers (Q3/Q5/Q10/Q13/Q21 spill nothing, Q18
# spills its join's inputs and group records, no joined row); error text for ON scoping, ambiguity and
# unknown columns is compared planner on, off and on-under-spill; a FROM
# of 70 leaves plans like any other; and a join whose pushed filter empties
# its build side leaves no reservation, run file or descriptor behind.
go test -race -count=1 ${SHORT_FLAG} \
  -run 'PushdownBelowJoin|CommaJoinPlansHashJoin|BuildSideSwap|TPCHJoinSyntax|TPCHSpillPins|PruneErrorsUnchanged|ManyLeafFrom|EmptyBuildClosesChildren|PlannerDifferential|CommaForm|EmptyAggregate' \
  ./internal/engine ./internal/tpch ./internal/proxy ./internal/server

echo "== flake guard: constant hiding, 100x"
# TestRewrittenSQLHidesConstants used to grep the rewritten SQL for the
# digits "1000" — which several thousand random hex digits of token
# material contain about one run in fifteen. It now parses the rewrite and
# walks its literals; a hundred runs with fresh keys keep it honest.
go test -count=100 -run 'TestRewrittenSQLHidesConstants' ./internal/proxy

echo "== frames, codec and hello under the race detector"
# The value codec on each of its paths and the framing around it: golden
# run-file and WAL-record bytes, negative shares refused by run file, WAL
# record and wire frame alike, the reader's window over components larger
# than itself, the frame cap exact at cap / cap + 1 (wire and a live
# server), a 4 GiB length prefix costing no more than the bytes that
# follow it, gob-speaking / wrong-magic / hello-less peers and the
# reserved request kinds 0, 2, 3 and 6 refused with one error frame (the
# server going on serving other sessions), the bytes of every remaining
# request kind pinned, and a scripted SP whose empty frame before
# end of stream the client refuses instead of ending the result short.
go test -race -count=1 -run 'Frame|Codec|Hello' \
  ./internal/wire ./internal/server ./internal/spill ./internal/types ./internal/wal

echo "== bench module (vet + smoke test)"
# bench/ is a Go module of its own (sdb/bench, replace sdb => ..), so the
# root `go vet ./...` / `go test ./...` neither build nor run it — a change
# that deletes or renames an exported symbol it compiles against would
# pass everything above (it compiles against proxy.StreamExecutor and
# proxy.DirectQueryer, the
# wire.FromColumns / FromRows / ToRows shims, secure.ApplyToken,
# secure.ApplyTokenBatch and
# Secret.NewRowID, among others). Its smoke test runs every workload at
# --scale tiny against its oracle.
(cd bench && go vet . && go test .)

echo "== concurrent serving suite under the race detector"
# The multi-driver serving storm and the engine-side pool tests again,
# race detector on: 12 concurrent drivers against one admission-limited
# server sharing a global resident-row pool, half of them disconnecting
# mid-stream, with the statement ledger and pool accounting asserted to
# balance afterwards. The -count=1 defeats test caching so the
# interleavings are fresh every CI run.
go test -race -count=1 -run 'Concurrent|BudgetPool|StmtClose' \
  ./internal/server ./internal/engine ./internal/spill
# The cursor lifecycle on both sides of the wire, race detector on: the
# exact backpressure bound (a stalled client costs the served batch plus
# the EOS peek), teardown finished before the close ack, re-execute after
# an early close, cancellation between batches, a connection dropped
# mid-stream that no goroutine outlives, the cursor ledger and the
# per-session cursor bound, the round trips of one statement (Prepare and
# Stmt.Close send nothing, a one-frame execution is one request) and a
# prepared SELECT re-derived after DROP + CREATE of its table.
go test -race -count=1 \
  -run 'Backpressure|TeardownBeforeAck|Reexecute|CtxCancel|DroppedConn|LifecycleSymmetry|SessionStmtLimit|RoundTrips|MultiFrame|AcrossRecreate' \
  ./internal/server ./internal/proxy

echo "== serving smoke (live sdb-server: /healthz + /metrics)"
# Build the real binaries, boot a server with the metrics endpoint, push
# one session of traffic through the shell client, and assert the health
# and metrics endpoints report it: /healthz says ok, the session / byte
# counters and the helper-power memo gauges are nonzero (a broken
# countingConn or metrics mux would serve zeros), and the five statements
# arrived as exactly five requests after the hello — every statement,
# prepared or not, is one OpExecuteDirect whose result here fits a frame. Uses fixed loopback ports; override with SDB_SMOKE_PORT
# if they clash on a shared runner.
SMOKE_PORT="${SDB_SMOKE_PORT:-7391}"
SMOKE_METRICS_PORT=$((SMOKE_PORT + 1))
SMOKE_DIR=$(mktemp -d)
go build -o "$SMOKE_DIR/sdb" ./cmd/sdb
go build -o "$SMOKE_DIR/sdb-server" ./cmd/sdb-server
(cd "$SMOKE_DIR" && ./sdb keygen -bits 512 >/dev/null)
"$SMOKE_DIR/sdb-server" -listen "127.0.0.1:${SMOKE_PORT}" \
  -public "$SMOKE_DIR/sp.pub" -metrics-addr "127.0.0.1:${SMOKE_METRICS_PORT}" \
  -max-sessions 16 -idle-timeout 30s &
SMOKE_PID=$!
trap 'kill "$SMOKE_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
for i in $(seq 1 50); do
  if curl -fsS "http://127.0.0.1:${SMOKE_METRICS_PORT}/healthz" 2>/dev/null | grep -q ok; then
    break
  fi
  sleep 0.1
  if [[ "$i" == 50 ]]; then echo "server never became healthy"; exit 1; fi
done
# The SENSITIVE aggregate runs twice: the SP flattens v with a token, which
# misses the helper-power memo the first time and hits it the second.
printf 'CREATE TABLE smoke (a INT, v INT SENSITIVE);\nINSERT INTO smoke VALUES (1, 10), (2, 20);\nSELECT a, v FROM smoke;\nSELECT SUM(v) FROM smoke;\nSELECT SUM(v) FROM smoke;\n\\q\n' \
  | "$SMOKE_DIR/sdb" shell -server "127.0.0.1:${SMOKE_PORT}" -secret "$SMOKE_DIR/do.key" >/dev/null
METRICS=$(curl -fsS "http://127.0.0.1:${SMOKE_METRICS_PORT}/metrics")
for counter in sdb_sessions_total sdb_frames_in_total sdb_bytes_in_total sdb_bytes_out_total \
    sdb_helper_power_hits_total sdb_helper_power_misses_total sdb_helper_power_entries sdb_helper_power_bytes; do
  if ! echo "$METRICS" | grep -E "^${counter} [1-9]" >/dev/null; then
    echo "metrics smoke: ${counter} is zero or missing:"
    echo "$METRICS"
    exit 1
  fi
done
for want in 'sdb_direct_execs_total 5' 'sdb_frames_in_total 6'; do
  if ! echo "$METRICS" | grep -qx "$want"; then
    echo "metrics smoke: want '$want':"
    echo "$METRICS"
    exit 1
  fi
done
kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
trap 'rm -rf "$SMOKE_DIR"' EXIT
rm -rf "$SMOKE_DIR"

if [[ -z "${SHORT_FLAG}" ]]; then
  echo "== fuzz smoke (10s per target)"
  go test -run xxx -fuzz FuzzLex        -fuzztime 10s ./internal/sqlparser
  go test -run xxx -fuzz FuzzParse      -fuzztime 10s ./internal/sqlparser
  go test -run xxx -fuzz FuzzExecSelect -fuzztime 10s ./internal/proxy
  go test -run xxx -fuzz FuzzValueRoundTrip -fuzztime 10s ./internal/types
  go test -run xxx -fuzz FuzzFrameDecode -fuzztime 10s ./internal/wire
  go test -run xxx -fuzz FuzzDecryptingCursor -fuzztime 10s ./internal/server
  go test -run xxx -fuzz FuzzWALRecordRoundTrip -fuzztime 10s ./internal/wal
  go test -run xxx -fuzz FuzzMontMulVsBigInt -fuzztime 10s ./internal/bigmod
  go test -run xxx -fuzz FuzzMontExpVsBigInt -fuzztime 10s ./internal/bigmod
  go test -run xxx -fuzz FuzzItemKeyTable -fuzztime 10s ./internal/secure
  go test -run xxx -fuzz FuzzDecryptHalfVsFull -fuzztime 10s ./internal/secure
  go test -run xxx -fuzz FuzzGroupKeyInjective -fuzztime 10s ./internal/engine
  go test -run xxx -fuzz FuzzShareProgram -fuzztime 10s ./internal/engine
fi

echo "CI OK"
