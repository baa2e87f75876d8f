package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the daemon's server bounds how long a client may
// take to send headers and how long an idle keep-alive connection lives.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("timeouts = (%v, %v), want the constants (%v, %v)",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	// The limits are on connections, not requests: a long-poll or a large
	// result must not be cut off.
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want 0 (unbounded requests)", srv.ReadTimeout, srv.WriteTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler != http.Handler(h) {
		t.Error("newHTTPServer dropped the address or handler")
	}
}
