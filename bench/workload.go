package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
	"sdb/internal/server"
	"sdb/internal/types"
)

// modulusBits is the modulus width of every deployment.
const modulusBits = 512

// setupRepeats is how often an untraced run sets the workload up; setup_s
// is the median, and the timed loop runs on the last deployment.
const setupRepeats = 3

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	tiny     bool
	// corruptOracle flips one expected value after the oracle is built;
	// the self-test uses it to prove a wrong answer is counted.
	corruptOracle bool
}

// op is one closed-loop operation of a client.
type op struct {
	// class groups operations whose latencies are comparable: a TPC-H
	// query number, a fetch size, read / write / rotate.
	class string
	// sql is the statement as the application wrote it.
	sql string
	// run issues the statement and returns once the last row is decrypted.
	run func(ctx context.Context) (*proxy.Result, error)
	// check compares the answer with the oracle; nil means any
	// acknowledged answer is correct.
	check func(rows []types.Row) error
	// acked runs after a correct answer (a write records its rows).
	acked func()
}

// client is one closed loop: an application thread with its own proxy
// and, on the served workloads, its own connection.
type client struct {
	p    *proxy.Proxy
	conn *server.Client // nil in-process
	sc   *opScope       // nil untraced
	// next produces the client's operations in their seeded order.
	next func() op
}

// deployment is a workload set up and warmed: what the timed loop runs on.
type deployment struct {
	clients []*client
	// round is the number of operations per client after which the loop
	// may stop, so every run measures the same mix of classes.
	round int
	// warm is how many operations per client the warm-up runs.
	warm int
	// latencyClasses lists the classes p50_ms/p90_ms are taken over; nil
	// means all of them.
	latencyClasses []string
	// eng is the service provider's engine, in-process or behind srv.
	eng *engine.Engine
	srv *server.Server
	// walTrace is the decorated WAL store of a traced durable run.
	walTrace *tracedStore
	scratch  string
	// setParallelism sets the worker bound of the engine's and the proxy's
	// pools (0 = the default); set where parallel.speedup is measured.
	setParallelism func(n int)
	// userBytes returns, and resets, the size of the INSERT statements
	// acknowledged so far.
	userBytes func() int64
	// finish runs the workload's closing checks (durability) before
	// teardown and returns how many acknowledged rows were lost.
	finish func(r *result) (lost int, err error)
	// close tears the deployment down.
	close func() error
}

// sample is one measured operation.
type sample struct {
	class   string
	sql     string
	latency time.Duration
	ok      bool
	rows    int
	stats   proxy.Stats
}

// result is everything one run measured.
type result struct {
	cfg    config
	setups []time.Duration
	wall   time.Duration
	// roundRate is the clients' summed throughput, each taken from its
	// median round: operations per round over the median round time. A
	// stall that hits a few rounds moves it far less than ops over wall.
	roundRate float64
	samples   []sample
	lost      int // acknowledged rows missing after recovery
	rssMiB    float64
	mem       [2]runtime.MemStats
	srvMet    [2]server.Metrics
	trips     int64
	planHits  uint64
	planMiss  uint64
	userBytes int64
	layers    map[string]float64 // traced runs only
	replays   map[string]replayed
	// userSQL and rewritten sample the statements of the timed loop, as
	// the application wrote them and, per class, as the SP received them.
	userSQL   []string
	rewritten map[string][]string
	firstErr  error // first failed operation, for the log
	latencyOf []string
}

type workload struct {
	setup func(cfg config, tr *tracer, scratch string) (*deployment, error)
	// crypto is false for the workload without SENSITIVE columns.
	crypto bool
}

var workloads = map[string]workload{
	"tpch-mem":     {setupTPCHMem, true},
	"wire-fetch":   {setupWireFetch, true},
	"oltp-durable": {setupOLTP, true},
	"plain-spill":  {setupPlainSpill, false},
}

// runWorkload sets the workload up, runs the timed closed loop, checks
// every answer and tears everything down again.
func runWorkload(cfg config, tr *tracer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{cfg: cfg}
	goroutines := runtime.NumGoroutine()
	if tr != nil {
		res.layers = make(map[string]float64)
		if w.crypto {
			// Before anything else: on the heap a workload leaves behind,
			// the collector's share of these loops triples their times.
			if err := secureOps(res.layers, pick(cfg.tiny, 10, 1)); err != nil {
				return nil, err
			}
		}
	}

	repeats := setupRepeats
	if cfg.traced || cfg.tiny {
		repeats = 1
	}
	var dep *deployment
	for i := 0; i < repeats; i++ {
		if dep != nil {
			if err := teardown(dep); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		scratch, err := os.MkdirTemp("", "sdbbench-*")
		if err != nil {
			return nil, err
		}
		dep, err = w.setup(cfg, tr, scratch)
		if err != nil {
			os.RemoveAll(scratch)
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		dep.scratch = scratch
		warmUp(dep)
		res.setups = append(res.setups, time.Since(t0))
	}
	res.latencyOf = dep.latencyClasses

	if tr != nil {
		tr.reset()
		if dep.walTrace != nil {
			dep.walTrace.resetCounts()
		}
	}
	measure(dep, cfg.seconds, res)

	if tr != nil {
		if err := measureLayers(dep, tr, res); err != nil {
			teardown(dep)
			return nil, fmt.Errorf("%s: per-layer measurement: %w", cfg.workload, err)
		}
	}
	if dep.finish != nil {
		lost, err := dep.finish(res)
		if err != nil {
			teardown(dep)
			return nil, fmt.Errorf("%s: closing check: %w", cfg.workload, err)
		}
		res.lost = lost
	}
	if err := teardown(dep); err != nil {
		return nil, err
	}
	if err := waitGoroutines(goroutines); err != nil {
		return nil, err
	}
	res.rssMiB = peakRSSMiB()
	return res, nil
}

// warmUp runs the first operations of every client untimed. It does not
// judge them: whatever fails here fails again in the timed loop, which
// counts it.
func warmUp(dep *deployment) {
	ctx := context.Background()
	for _, c := range dep.clients {
		for i := 0; i < dep.warm; i++ {
			c.do(ctx, c.next())
		}
	}
}

type outcome struct {
	sample
	err error
}

// do runs one operation: issue, drain, decrypt, then check.
func (c *client) do(ctx context.Context, o op) outcome {
	var id int64
	if c.sc != nil {
		id = c.sc.begin()
	}
	t0 := time.Now()
	res, err := o.run(ctx)
	t1 := time.Now()
	if c.sc != nil {
		c.sc.end(id, o.class, t0, t1)
	}
	out := outcome{sample: sample{class: o.class, sql: o.sql, latency: t1.Sub(t0)}, err: err}
	if err != nil {
		return out
	}
	out.rows, out.stats = len(res.Rows), res.Stats
	if o.check != nil {
		if out.err = o.check(res.Rows); out.err != nil {
			return out
		}
	}
	out.ok = true
	if o.acked != nil {
		o.acked()
	}
	return out
}

// measure runs the closed loops: every client sends its next statement
// when the previous answer is fully drained and decrypted, and stops at
// the first round boundary after the deadline.
func measure(dep *deployment, seconds float64, res *result) {
	ctx := context.Background()
	perClient := make([][]sample, len(dep.clients))
	rounds := make([][]float64, len(dep.clients)) // seconds per round
	errs := make([]error, len(dep.clients))
	before := snapshotCounters(dep)
	if dep.userBytes != nil {
		dep.userBytes() // forget what set-up and warm-up inserted
	}
	runtime.GC()
	runtime.ReadMemStats(&res.mem[0])
	if dep.srv != nil {
		res.srvMet[0] = dep.srv.MetricsSnapshot()
	}

	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i, c := range dep.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			roundStart := start
			for n := 0; ; n++ {
				if n > 0 && n%dep.round == 0 {
					now := time.Now()
					rounds[i] = append(rounds[i], now.Sub(roundStart).Seconds())
					roundStart = now
					if !now.Before(deadline) {
						return
					}
				}
				out := c.do(ctx, c.next())
				if !out.ok && errs[i] == nil {
					errs[i] = fmt.Errorf("%s: %w", out.class, out.err)
				}
				perClient[i] = append(perClient[i], out.sample)
			}
		}(i, c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for i := range rounds {
		res.roundRate += float64(dep.round) / median(rounds[i])
	}

	runtime.ReadMemStats(&res.mem[1])
	if dep.srv != nil {
		res.srvMet[1] = dep.srv.MetricsSnapshot()
	}
	after := snapshotCounters(dep)
	res.trips = after.trips - before.trips
	res.planHits = after.hits - before.hits
	res.planMiss = after.misses - before.misses
	if dep.userBytes != nil {
		res.userBytes = dep.userBytes()
	}
	for i := range perClient {
		res.samples = append(res.samples, perClient[i]...)
		if res.firstErr == nil {
			res.firstErr = errs[i]
		}
	}
	res.sampleStatements()
}

// sampleStatements keeps up to 16 distinct statements per class.
func (r *result) sampleStatements() {
	const perClass = 16
	r.rewritten = make(map[string][]string)
	user := make(map[string]int)
	seen := make(map[string]bool)
	for _, s := range r.samples {
		if !s.ok || s.sql == "" || seen[s.sql] {
			continue
		}
		seen[s.sql] = true
		if user[s.class] < perClass {
			user[s.class]++
			r.userSQL = append(r.userSQL, s.sql)
		}
		if len(r.rewritten[s.class]) < perClass {
			r.rewritten[s.class] = append(r.rewritten[s.class], s.stats.RewrittenSQL)
		}
	}
}

type counters struct {
	trips        int64
	hits, misses uint64
}

func snapshotCounters(dep *deployment) counters {
	var c counters
	for _, cl := range dep.clients {
		if cl.conn != nil {
			c.trips += cl.conn.RoundTrips()
		}
		h, m := cl.p.PlanCacheStats()
		c.hits += h
		c.misses += m
	}
	return c
}

// teardown closes the deployment and checks that it left nothing behind
// in its scratch directory's spill area.
func teardown(dep *deployment) error {
	err := dep.close()
	if left := spillLeftovers(dep.scratch); err == nil && len(left) > 0 {
		err = fmt.Errorf("spill files outlived their queries: %s", strings.Join(left, ", "))
	}
	if rerr := os.RemoveAll(dep.scratch); err == nil {
		err = rerr
	}
	return err
}

func spillDir(scratch string) string { return scratch + "/spill" }

func spillLeftovers(scratch string) []string {
	entries, err := os.ReadDir(spillDir(scratch))
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// waitGoroutines gives the server's session goroutines a moment to see
// their closed sockets, then insists none is left.
func waitGoroutines(want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines outlived the run (started with %d)", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// peakRSSMiB is VmHWM of this process.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// ---- shared set-up helpers -------------------------------------------------

func newSecret() (*secure.Secret, error) {
	return secure.Setup(modulusBits, secure.DefaultValueBits, secure.DefaultMaskBits)
}

// newClient builds a client whose proxy talks to conn, or to eng when conn
// is nil, through the tracing decorators when the run is traced. A state
// path makes the proxy a second holder of an existing key store.
func newClient(secret *secure.Secret, statePath string, eng *engine.Engine, conn *server.Client, tr *tracer) (*client, error) {
	c := &client{conn: conn}
	var exec proxy.Executor
	switch {
	case tr == nil && conn != nil:
		exec = conn
	case tr == nil:
		exec = eng
	default:
		c.sc = &opScope{t: tr}
		if conn != nil {
			exec = &tracedClient{tracedExec: tracedExec{inner: conn, sc: c.sc}, dq: conn}
		} else {
			exec = &tracedEngine{tracedExec: tracedExec{inner: eng, sc: c.sc}, eng: eng}
		}
	}
	var err error
	if statePath != "" {
		c.p, err = proxy.NewFromStateFile(statePath, exec, proxy.Options{})
	} else {
		c.p, err = proxy.New(secret, exec)
	}
	return c, err
}

func execAll(p *proxy.Proxy, stmts []string) error {
	for _, s := range stmts {
		if _, err := p.Exec(s); err != nil {
			return fmt.Errorf("%.60s…: %w", s, err)
		}
	}
	return nil
}

// ---- answer checking --------------------------------------------------------

func cellEqual(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return a.I == b.I && a.S == b.S
}

func rowKey(r types.Row) string {
	var sb strings.Builder
	for _, v := range r {
		if v.IsNull() {
			sb.WriteString("\x00N")
			continue
		}
		fmt.Fprintf(&sb, "\x00%d\x01%s", v.I, v.S)
	}
	return sb.String()
}

// sameRows compares a decrypted answer with the oracle's, in order when
// the query fixes one and as multisets otherwise.
func sameRows(got, want []types.Row, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	if !ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("row %d: %d columns, oracle has %d", r, len(got[r]), len(want[r]))
		}
		for c := range got[r] {
			if !cellEqual(got[r][c], want[r][c]) {
				return fmt.Errorf("row %d column %d: %v, oracle has %v", r, c, got[r][c], want[r][c])
			}
		}
	}
	return nil
}

func sortedRows(rows []types.Row) []types.Row {
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, r := range rows {
		keys[i], idx[i] = rowKey(r), i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]types.Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// corrupt changes the first non-null cell of the expected answers.
func corrupt(answers ...[]types.Row) {
	for _, rows := range answers {
		for _, row := range rows {
			for c := range row {
				if !row[c].IsNull() {
					row[c].I++
					row[c].S += "x"
					return
				}
			}
		}
	}
}
