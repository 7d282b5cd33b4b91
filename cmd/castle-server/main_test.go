package main

import (
	"testing"

	"castle"
	"castle/internal/server"
)

// TestNewHTTPServerTimeouts: the serving http.Server bounds every phase of
// a connection, and its write timeout outlasts the longest request
// deadline so a query that uses all of it still gets its response.
func TestNewHTTPServerTimeouts(t *testing.T) {
	svc, err := server.New(castle.New(), nil, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := newHTTPServer("127.0.0.1:0", svc.Handler(), svc.MaxDeadline())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unbounded read/idle phase: header %v, read %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("header timeout %v exceeds the whole-request read timeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if svc.MaxDeadline() <= 0 || srv.WriteTimeout <= svc.MaxDeadline() {
		t.Fatalf("write timeout %v does not outlast the longest request deadline %v",
			srv.WriteTimeout, svc.MaxDeadline())
	}
}
