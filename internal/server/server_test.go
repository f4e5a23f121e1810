package server

import (
	"strings"
	"testing"

	"sdb/internal/engine"
	"sdb/internal/proxy"
	"sdb/internal/secure"
)

// TestProxyOverTCP runs the demo's two-machine setup: a proxy (MDO)
// speaking to a server (MSP) over a real TCP socket.
func TestProxyOverTCP(t *testing.T) {
	secret, err := secure.Setup(512, 62, 80)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(secret.N(), engine.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	p, err := proxy.New(secret, client)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := p.Exec(`CREATE TABLE t (id INT, v INT SENSITIVE)`); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := p.Exec(`INSERT INTO t VALUES (1, 100), (2, -50), (3, 200)`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	res, err := p.Exec(`SELECT id, v FROM t WHERE v > 0 ORDER BY id`)
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].I != 100 || res.Rows[1][1].I != 200 {
		t.Errorf("rows: %v", res.Rows)
	}

	sum, err := p.Exec(`SELECT SUM(v) FROM t`)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if sum.Rows[0][0].I != 250 {
		t.Errorf("sum = %v", sum.Rows[0][0])
	}
}

func TestServerReportsErrors(t *testing.T) {
	secret, _ := secure.Setup(256, 40, 40)
	srv := NewWithOptions(secret.N(), engine.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.ExecuteSQL("SELECT nothing FROM nowhere"); err == nil {
		t.Error("expected error from server")
	}
	// Connection must survive an error and serve the next request.
	if _, err := client.ExecuteSQL("CREATE TABLE ok (a INT)"); err != nil {
		t.Errorf("second request failed: %v", err)
	}
}

// TestEmptyAggregateKeepsServerAlive: an aggregate with an empty argument
// list used to panic on an engine pool goroutine, which no session recover
// reaches — one statement from any client killed the process. It must come
// back as an error frame and the same session must keep serving.
func TestEmptyAggregateKeepsServerAlive(t *testing.T) {
	_, addr := plainServer(t, 20)
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, sql := range []string{
		`SELECT COUNT() FROM c GROUP BY b`,
		`SELECT SUM() FROM c`,
		`SELECT b, MAX() FROM c GROUP BY b`,
	} {
		_, err := client.ExecuteSQL(sql)
		if err == nil || !strings.Contains(err.Error(), "needs an argument") {
			t.Errorf("%s: error %v, want a clean \"needs an argument\"", sql, err)
		}
	}
	res, err := client.ExecuteSQL(`SELECT COUNT(*) FROM c`)
	if err != nil || res.Rows[0][0].I != 20 {
		t.Fatalf("session unusable after the refused statements: %v, %v", res, err)
	}
}

// TestMalformedUDFsKeepServerAlive: SDB UDF calls with a zero modulus, a
// plaintext mask or a non-share token used to panic — often on an engine
// pool goroutine, taking the whole process down. Each is a plan-time error
// frame now, and the same session keeps serving.
func TestMalformedUDFsKeepServerAlive(t *testing.T) {
	srv := NewWithOptions(nil, engine.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, sql := range []string{
		`CREATE TABLE enc (id INT, v INT SENSITIVE, m INT SENSITIVE)`,
		`INSERT INTO enc (id, v, m, row_id, sdb_w) VALUES (1, 0x5, 0x7, 0x1, 0x3), (2, 0x9, 0xb, 0x1, 0xd)`,
	} {
		if _, err := client.ExecuteSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, sql := range []string{
		`SELECT sdb_keyupdate(v, sdb_w, 0x3, 0x5, 0x0) FROM enc`,
		`SELECT sdb_sign(v, sdb_w, 0x3, 0x5, 0x0) FROM enc`,
		`SELECT sdb_const(sdb_w, 0x3, 0x5, 0x0) FROM enc`,
		`SELECT sdb_mul(v, m, 0x0) FROM enc`,
		`SELECT sdb_add(v, m, 0x0) FROM enc`,
		`SELECT sdb_scale(v, id, 0x0) FROM enc`,
		`SELECT id FROM enc ORDER BY sdb_ord(v, id, 0x3, 0x5)`,
		`SELECT id FROM enc ORDER BY sdb_ord(v, m, 1, 2)`,
		`SELECT id FROM enc ORDER BY sdb_ord(v, m, 0x3, 0x0)`,
		`SELECT sum(sdb_keyupdate(v, sdb_w, 0x3, 0x5, 0x0)) FROM enc`,
		`SELECT sdb_min(v, m, 0x3, 0x0) FROM enc`,
	} {
		if _, err := client.ExecuteSQL(sql); err == nil {
			t.Errorf("%s: no error", sql)
		}
		res, err := client.ExecuteSQL(`SELECT COUNT(*) FROM enc`)
		if err != nil || res.Rows[0][0].I != 2 {
			t.Fatalf("session unusable after %s: %v, %v", sql, res, err)
		}
	}
}

func TestServeBeforeListen(t *testing.T) {
	srv := NewWithOptions(nil, engine.Options{})
	if err := srv.Serve(); err == nil {
		t.Error("expected error")
	}
}

func TestClientClosed(t *testing.T) {
	secret, _ := secure.Setup(256, 40, 40)
	srv := NewWithOptions(secret.N(), engine.Options{})
	addr, _ := srv.Listen("127.0.0.1:0")
	go srv.Serve()
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := client.ExecuteSQL("SELECT 1"); err == nil {
		t.Error("expected error after close")
	}
}
