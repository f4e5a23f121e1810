package server

import (
	"strings"
	"testing"

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
	srv := New(secret.N())
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
	srv := New(secret.N())
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

func TestServeBeforeListen(t *testing.T) {
	srv := New(nil)
	if err := srv.Serve(); err == nil {
		t.Error("expected error")
	}
}

func TestClientClosed(t *testing.T) {
	secret, _ := secure.Setup(256, 40, 40)
	srv := New(secret.N())
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
