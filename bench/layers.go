package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/big"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/spill"
	"sdb/internal/sqlparser"
	"sdb/internal/types"
	"sdb/internal/wire"
)

// Per-layer numbers of a traced run. Nothing here reads a counter the
// program does not already publish: times come from the spans the
// decorators recorded, from replaying the workload's own statements and
// batches through one layer's public functions, and from the counters
// the proxy, the server and the iterators expose.

// replayed is what one class of operations costs inside the engine alone.
type replayed struct {
	exec  time.Duration
	rows  int
	stats engine.ExecStats
}

func measureLayers(dep *deployment, tr *tracer, res *result) error {
	L := res.layers
	sum := tr.summarize()
	if err := tr.write(filepath.Join(outDir, "trace-"+res.cfg.workload+".json")); err != nil {
		return err
	}

	ops := 0
	var total, spTime time.Duration
	batches := 0
	for _, ct := range sum.byClass {
		ops += ct.ops
		total += ct.total
		spTime += ct.sp
		batches += ct.batches
	}
	if ops == 0 {
		return fmt.Errorf("traced run recorded no operations")
	}
	perOp := func(d time.Duration) float64 { return ms(d) / float64(ops) }

	L["trace.ops_per_s"] = res.opsPerSec()
	L["proxy.self_ms_per_op"] = perOp(total - spTime)
	L["sp.call_ms_per_op"] = perOp(spTime)
	L["sp.batches_per_op"] = float64(batches) / float64(ops)

	// What the proxy itself reports per statement.
	var parse, rewrite, decrypt, client, all time.Duration
	rows := 0
	for _, s := range res.samples {
		parse += s.stats.Parse
		rewrite += s.stats.Rewrite
		decrypt += s.stats.Decrypt
		client += s.stats.Client()
		all += s.stats.Total()
		rows += s.rows
	}
	L["proxy.parse_us"] = us(parse) / float64(ops)
	L["proxy.rewrite_us"] = us(rewrite) / float64(ops)
	L["proxy.decrypt_us_per_row"] = ratio(us(decrypt), float64(rows))
	L["proxy.do_share"] = ratio(float64(client), float64(all))
	L["proxy.plan_cache_hit_ratio"] = ratio(float64(res.planHits), float64(res.planHits+res.planMiss))

	L["sqlparser.parse_us_per_stmt"] = parseCost(res.userSQL)

	// Engine time by replay: the rewritten SELECTs of each class run
	// against the SP's engine directly, with no proxy, wire or server
	// around them and no other client competing.
	replays, sampleBatch, err := replay(dep.eng, res.rewritten)
	if err != nil {
		return err
	}
	res.replays = replays
	var engTime, spReplayable time.Duration
	replayedOps, rowsOut := 0, 0
	var spills, spilledRows, files int
	var prefetched int64
	for class, r := range replays {
		w := sum.byClass[class].ops
		replayedOps += w
		engTime += time.Duration(w) * r.exec
		rowsOut += w * r.rows
		spReplayable += sum.byClass[class].sp
		spills += w * r.stats.Spills
		spilledRows += w * r.stats.SpilledRows
		files += w * r.stats.SpillFiles
		prefetched += int64(w) * r.stats.PrefetchedBytes
		if float64(r.stats.PeakResidentRows) > L["engine.peak_resident_rows"] {
			L["engine.peak_resident_rows"] = float64(r.stats.PeakResidentRows)
		}
	}
	if replayedOps > 0 {
		n := float64(replayedOps)
		L["engine.exec_ms_per_op"] = ms(engTime) / n
		L["engine.rows_out_per_op"] = float64(rowsOut) / n
		L["spill.spills"] = float64(spills) / n
		L["spill.spilled_rows"] = float64(spilledRows) / n
		L["spill.files"] = float64(files) / n
		L["spill.prefetched_bytes"] = float64(prefetched) / n
	}

	if dep.srv != nil {
		n := float64(ops)
		a, b := res.srvMet[0], res.srvMet[1]
		// What is left of the SP call once the engine's share is taken
		// out: framing, gob, sockets, sessions, and waiting for the other
		// client. Only classes that could be replayed count.
		L["server.overhead_ms_per_op"] = ms(spReplayable-engTime) / float64(replayedOps)
		L["server.frames_in"] = float64(b.FramesIn-a.FramesIn) / n
		L["server.rows_produced"] = float64(b.RowsProduced-a.RowsProduced) / n
		L["server.direct_execs"] = float64(b.DirectExecs-a.DirectExecs) / n
		L["server.stmt_ledger_delta"] = float64((b.StmtsPrepared - b.StmtsClosed) - (a.StmtsPrepared - a.StmtsClosed))
		if len(sampleBatch.Rows) > 0 {
			if err := wireCodec(sampleBatch, L); err != nil {
				return err
			}
		}
	}

	if dep.setParallelism != nil {
		serial, err := timedRound(dep, 1)
		if err != nil {
			return err
		}
		parallel, err := timedRound(dep, 0)
		if err != nil {
			return err
		}
		L["parallel.speedup"] = ratio(float64(serial), float64(parallel))
	}
	if spills > 0 {
		if err := spillCodec(dep.eng, L); err != nil {
			return err
		}
	}
	if dep.walTrace != nil {
		records, checkpoints := dep.walTrace.counts()
		L["wal.append_us"] = us(meanDuration(sum.wal["wal.append"]))
		L["wal.update_ms"] = ms(meanDuration(sum.wal["wal.update"]))
		L["wal.checkpoint_ms"] = ms(meanDuration(sum.wal["wal.checkpoint"]))
		L["wal.checkpoints"] = float64(checkpoints)
		L["wal.records"] = float64(records) / float64(ops)
		L["wal.bytes_per_user_byte"] = ratio(float64(dep.walTrace.bytesWritten()), float64(res.userBytes))
	}
	n := float64(ops)
	L["proc.alloc_mb_per_op"] = float64(res.mem[1].TotalAlloc-res.mem[0].TotalAlloc) / (1 << 20) / n
	L["proc.mallocs_per_op"] = float64(res.mem[1].Mallocs-res.mem[0].Mallocs) / n
	L["proc.gc_cycles"] = float64(res.mem[1].NumGC - res.mem[0].NumGC)
	return nil
}

// wireBytesPerOp is the DO-to-cloud traffic of the timed loop per
// operation, as the server's socket counters saw it.
func wireBytesPerOp(res *result) float64 {
	a, b := res.srvMet[0], res.srvMet[1]
	return ratio(float64(b.BytesIn-a.BytesIn+b.BytesOut-a.BytesOut), float64(len(res.samples)))
}

// latencies returns the ascending latencies, in ms, of the correct
// operations of the given classes (nil = all classes).
func latencies(samples []sample, classes []string) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.ok || (classes != nil && !slices.Contains(classes, s.class)) {
			continue
		}
		out = append(out, ms(s.latency))
	}
	sort.Float64s(out)
	return out
}

// parseCost is the mean time of sqlparser.Parse over the statements the
// application sent.
func parseCost(stmts []string) float64 {
	if len(stmts) == 0 {
		return 0
	}
	const reps = 5
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range stmts {
			if _, err := sqlparser.Parse(s); err != nil {
				return 0
			}
		}
	}
	return us(time.Since(t0)) / float64(reps*len(stmts))
}

// replay runs every class's rewritten SELECTs through the engine and
// drains them, once to warm and then timed; a class's cost is its median
// statement. It also returns the largest batch it saw, as sample rows for
// the wire codec.
func replay(eng *engine.Engine, rewritten map[string][]string) (map[string]replayed, *engine.Result, error) {
	ctx := context.Background()
	out := make(map[string]replayed)
	sampleBatch := &engine.Result{}
	for class, stmts := range rewritten {
		if len(stmts) == 0 || !strings.HasPrefix(stmts[0], "SELECT") {
			continue
		}
		var times []float64
		var last replayed
		for pass := 0; pass < 2; pass++ {
			for _, sql := range stmts {
				t0 := time.Now()
				it, err := eng.QuerySQL(ctx, sql)
				if err != nil {
					return nil, nil, fmt.Errorf("replay %s: %w", class, err)
				}
				res := &engine.Result{Columns: it.Columns()}
				for {
					batch, err := it.NextBatch()
					if err == io.EOF {
						break
					}
					if err != nil {
						it.Close()
						return nil, nil, fmt.Errorf("replay %s: %w", class, err)
					}
					res.Rows = append(res.Rows, batch...)
				}
				d := time.Since(t0)
				if st, ok := it.(interface{ Stats() engine.ExecStats }); ok {
					last.stats = st.Stats()
				}
				it.Close()
				if pass == 0 {
					continue
				}
				times = append(times, float64(d))
				last.rows = len(res.Rows)
				if len(res.Rows) > len(sampleBatch.Rows) {
					sampleBatch = res
				}
			}
		}
		last.exec = time.Duration(median(times))
		out[class] = last
	}
	return out, sampleBatch, nil
}

// wireCodec times the wire layer alone on rows the workload really
// returned: one connection over a memory buffer, so its gob streams are
// as warm as a session's.
func wireCodec(batch *engine.Result, L map[string]float64) error {
	rows := batch.Rows
	if len(rows) > 1024 {
		rows = rows[:1024]
	}
	var buf bytes.Buffer
	conn := wire.NewConn(&buf)
	frame := func() *wire.Response {
		return &wire.Response{Columns: wire.FromColumns(batch.Columns), Rows: wire.FromRows(rows), Ver: wire.ProtocolV2}
	}
	if err := conn.SendResponse(frame()); err != nil { // type descriptors go out once
		return err
	}
	if _, err := conn.ReadResponse(); err != nil {
		return err
	}
	const reps = 20
	var enc, dec time.Duration
	var bytesOut int
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := conn.SendResponse(frame()); err != nil {
			return err
		}
		enc += time.Since(t0)
		bytesOut += buf.Len()
		t1 := time.Now()
		resp, err := conn.ReadResponse()
		if err != nil {
			return err
		}
		if got := wire.ToRows(resp.Rows); len(got) != len(rows) {
			return fmt.Errorf("wire round trip returned %d of %d rows", len(got), len(rows))
		}
		dec += time.Since(t1)
	}
	n := float64(reps * len(rows))
	L["wire.bytes_per_row"] = float64(bytesOut) / n
	L["wire.encode_us_per_row"] = us(enc) / n
	L["wire.decode_us_per_row"] = us(dec) / n
	return nil
}

// spillCodec times the run-file codec on rows of the table the spilling
// joins partition.
func spillCodec(eng *engine.Engine, L map[string]float64) error {
	t, err := eng.Catalog().Get("orders")
	if err != nil {
		return err
	}
	v := t.Load()
	n := v.NumRows()
	if n > 2000 {
		n = 2000
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = v.RowAt(i)
	}
	const reps = 20
	var wr, rd time.Duration
	for r := 0; r < reps; r++ {
		var buf bytes.Buffer
		w := spill.NewWriter(&buf)
		t0 := time.Now()
		for _, row := range rows {
			if err := w.WriteRow(row); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		wr += time.Since(t0)
		rdr := spill.NewReader(&buf)
		t1 := time.Now()
		for range rows {
			if _, err := rdr.ReadRow(); err != nil {
				return err
			}
		}
		rd += time.Since(t1)
	}
	L["spill.codec_write_ns_per_row"] = float64(wr) / float64(reps*n)
	L["spill.codec_read_ns_per_row"] = float64(rd) / float64(reps*n)
	return nil
}

// timedRound runs one round of client 0 at the given parallelism (0 =
// the default) and returns how long it took.
func timedRound(dep *deployment, parallelism int) (time.Duration, error) {
	dep.setParallelism(parallelism)
	defer dep.setParallelism(0)
	c := dep.clients[0]
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < dep.round; i++ {
		if out := c.do(ctx, c.next()); !out.ok {
			return 0, fmt.Errorf("%s at parallelism %d: %w", out.class, parallelism, out.err)
		}
	}
	return time.Since(t0), nil
}

// secureOps times the share arithmetic on fixed inputs, the way
// `sdb-bench -exp ops` does. The first call on a fresh secret is reported
// apart (cold: it builds the per-modulus tables) from the steady loop.
// shrink divides the loop lengths, for the smoke test.
func secureOps(L map[string]float64, shrink int) error {
	secret, err := newSecret()
	if err != nil {
		return err
	}
	n := secret.N()
	ckA, err := secret.NewColumnKey()
	if err != nil {
		return err
	}
	ckB, _ := secret.NewColumnKey()
	ckR, _ := secret.NewColumnKey()
	rid, _ := secret.NewRowID()
	mask, _ := secret.NewMaskValue()
	if err != nil {
		return err
	}
	wv := secret.RowHelper(rid)
	half := new(big.Int).Rsh(n, 1)

	var ae, be, me *big.Int
	var tokU, rev secure.Token
	timeOp := func(name string, iters int, f func()) {
		t0 := time.Now()
		f()
		L["secure."+name+"_cold_ns"] = float64(time.Since(t0))
		iters /= shrink
		t1 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		L["secure."+name+"_ns"] = float64(time.Since(t1)) / float64(iters)
	}
	timeOp("encrypt", 2000, func() { ae, _ = secret.EncryptInt64(123456, rid, ckA) })
	be, _ = secret.EncryptInt64(-9876, rid, ckB)
	me, _ = secret.EncryptMask(mask, rid, ckR)
	tokU, _ = secret.KeyUpdateToken(ckB, ckA)
	rev, _ = secret.RevealToken(secret.MulKeys(ckA, ckR))
	timeOp("decrypt", 2000, func() { secret.Decrypt(ae, rid, ckA) })
	timeOp("multiply", 2000, func() { secure.Multiply(ae, be, n) })
	timeOp("keyupdate", 2000, func() { secure.ApplyToken(tokU, be, wv, n) })
	timeOp("compare_full", 500, func() {
		diff := secure.SubShares(ae, secure.ApplyToken(tokU, be, wv, n), n)
		masked := secure.Multiply(diff, me, n)
		secure.MaskedSign(secure.ApplyToken(rev, masked, wv, n), half)
	})

	const batch = 256
	ves := make([]*big.Int, batch)
	ws := make([]*big.Int, batch)
	for i := range ves {
		r, _ := secret.NewRowID()
		ves[i], _ = secret.EncryptInt64(int64(i), r, ckB)
		ws[i] = secret.RowHelper(r)
	}
	reps := 20 / shrink
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := secure.ApplyTokenBatch(tokU, ves, ws, n); err != nil {
			return err
		}
	}
	L["secure.keyupdate_batch_ns_per_row"] = float64(time.Since(t0)) / float64(reps*batch)
	return nil
}
