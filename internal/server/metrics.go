package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"sdb/internal/secure"
)

// metrics is the server's counter block. Everything is a monotonic
// atomic counter; gauges (active sessions, open cursors, budget-pool
// pressure) are computed at scrape time from live state so they cannot
// drift from the truth they summarize.
type metrics struct {
	sessionsTotal    atomic.Int64 // sessions admitted since start
	sessionsRejected atomic.Int64 // connections refused by the session limit
	stmtsPrepared    atomic.Int64 // cursors opened
	stmtsClosed      atomic.Int64 // cursors freed (EOS, error, OpClose, shutdown)
	stmtsRejected    atomic.Int64 // statements refused by the per-session limit
	directExecs      atomic.Int64 // OpExecuteDirect requests served
	rowsProduced     atomic.Int64 // rows pulled from engine iterators
	framesIn         atomic.Int64 // request frames decoded
	framesOversize   atomic.Int64 // frames dropped by the size cap
	bytesIn          atomic.Int64 // bytes read off session sockets
	bytesOut         atomic.Int64 // bytes written to session sockets
}

// countingConn wraps a session socket so every byte in or out lands in
// the server counters, whatever framing sits on top.
type countingConn struct {
	net.Conn
	met *metrics
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.met.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.met.bytesOut.Add(int64(n))
	return n, err
}

// Metrics is a point-in-time snapshot of the server's serving counters
// (test and ops introspection; the HTTP endpoint renders the same data).
type Metrics struct {
	SessionsActive   int
	SessionsTotal    int64
	SessionsRejected int64
	StmtsOpen        int
	StmtsPrepared    int64
	StmtsClosed      int64
	StmtsRejected    int64
	DirectExecs      int64
	RowsProduced     int64
	FramesIn         int64
	FramesOversize   int64
	BytesIn          int64
	BytesOut         int64
}

// MetricsSnapshot captures the current counters and live gauges.
func (s *Server) MetricsSnapshot() Metrics {
	return Metrics{
		SessionsActive:   s.NumSessions(),
		SessionsTotal:    s.met.sessionsTotal.Load(),
		SessionsRejected: s.met.sessionsRejected.Load(),
		StmtsOpen:        s.OpenStmts(),
		StmtsPrepared:    s.met.stmtsPrepared.Load(),
		StmtsClosed:      s.met.stmtsClosed.Load(),
		StmtsRejected:    s.met.stmtsRejected.Load(),
		DirectExecs:      s.met.directExecs.Load(),
		RowsProduced:     s.met.rowsProduced.Load(),
		FramesIn:         s.met.framesIn.Load(),
		FramesOversize:   s.met.framesOversize.Load(),
		BytesIn:          s.met.bytesIn.Load(),
		BytesOut:         s.met.bytesOut.Load(),
	}
}

// RegisterGauge exposes an external gauge on /metrics under name (a
// Prometheus-style identifier). The function is called at scrape time.
// Deployments embedding a proxy use this to surface plan-cache hits and
// misses next to the serving counters; re-registering a name replaces it.
func (s *Server) RegisterGauge(name string, fn func() int64) {
	s.gauges.Lock()
	defer s.gauges.Unlock()
	if s.gauges.byName == nil {
		s.gauges.byName = make(map[string]func() int64)
	}
	if _, ok := s.gauges.byName[name]; !ok {
		s.gauges.names = append(s.gauges.names, name)
	}
	s.gauges.byName[name] = fn
}

// registerHelperPowerGauges exports the process-wide helper-power memo of
// internal/secure (the SP's token applications go through it). The memo
// reports counts and sizes only, so nothing scraped here carries helper,
// exponent or token material.
func registerHelperPowerGauges(s *Server) {
	s.RegisterGauge("sdb_helper_power_hits_total", func() int64 { return secure.HelperPowers().Hits })
	s.RegisterGauge("sdb_helper_power_misses_total", func() int64 { return secure.HelperPowers().Misses })
	s.RegisterGauge("sdb_helper_power_entries", func() int64 { return secure.HelperPowers().Entries })
	s.RegisterGauge("sdb_helper_power_bytes", func() int64 { return secure.HelperPowers().Bytes })
}

// MetricsHandler serves /metrics (Prometheus text format) and /healthz.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			http.Error(w, "closing", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.writeMetrics(w)
	})
	return mux
}

func (s *Server) writeMetrics(w http.ResponseWriter) {
	m := s.MetricsSnapshot()
	var b strings.Builder
	put := func(name string, v int64) {
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	put("sdb_sessions_active", int64(m.SessionsActive))
	put("sdb_sessions_total", m.SessionsTotal)
	put("sdb_sessions_rejected_total", m.SessionsRejected)
	put("sdb_stmts_open", int64(m.StmtsOpen))
	put("sdb_stmts_prepared_total", m.StmtsPrepared)
	put("sdb_stmts_closed_total", m.StmtsClosed)
	put("sdb_stmts_rejected_total", m.StmtsRejected)
	put("sdb_direct_execs_total", m.DirectExecs)
	put("sdb_rows_produced_total", m.RowsProduced)
	put("sdb_frames_in_total", m.FramesIn)
	put("sdb_frames_oversize_total", m.FramesOversize)
	put("sdb_bytes_in_total", m.BytesIn)
	put("sdb_bytes_out_total", m.BytesOut)
	if pool := s.eng.BudgetPool(); pool != nil {
		put("sdb_budget_pool_limit_rows", int64(pool.Limit()))
		put("sdb_budget_pool_used_rows", int64(pool.Used()))
		put("sdb_budget_pool_max_used_rows", int64(pool.MaxUsed()))
		put("sdb_budget_pool_refused_total", pool.Refused())
	}
	s.gauges.Lock()
	names := append([]string(nil), s.gauges.names...)
	fns := make(map[string]func() int64, len(names))
	for _, n := range names {
		fns[n] = s.gauges.byName[n]
	}
	s.gauges.Unlock()
	sort.Strings(names)
	for _, n := range names {
		put(n, fns[n]())
	}
	w.Write([]byte(b.String()))
}

// ServeMetrics starts the HTTP metrics endpoint on addr (":0" picks a
// port; the bound address is returned). The endpoint lives until
// Server.Close.
func (s *Server) ServeMetrics(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.MetricsHandler()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil, errors.New("server: closed")
	}
	s.metricsSrv = srv
	s.mu.Unlock()
	go srv.Serve(l)
	return l.Addr(), nil
}
