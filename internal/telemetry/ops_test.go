package telemetry

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestOpsMuxServesMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "Liveness.").Inc()
	RegisterPoolGauges(reg, func() int { return 4 }, func() int { return 1 })

	bound, shutdown, err := ServeOps("127.0.0.1:0", NewOpsMux(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = shutdown() }()

	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{"up_total 1", "tensor_pool_workers 4", "tensor_pool_in_use 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, body)
		}
	}

	code, body, _ = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

// TestServeOpsShutdownClosesSilentConn: a connection dialed but never sent
// a request must not hold shutdown for http.Server's five-second StateNew
// grace — past the drain deadline, which then failed the close.
func TestServeOpsShutdownClosesSilentConn(t *testing.T) {
	bound, shutdown, err := ServeOps("127.0.0.1:0", NewOpsMux(NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The server accepts in dial order, so once a later connection has been
	// served, the silent one is accepted and sits in StateNew.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	start := time.Now()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown with a silent connection open: %v", err)
	}
	if took := time.Since(start); took >= opsDrainTimeout {
		t.Fatalf("shutdown took %v, at least the %v drain deadline", took, opsDrainTimeout)
	}
	// The server side closed the silent connection: a read sees EOF.
	_ = silent.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection read after shutdown: n=%d err=%v, want EOF", n, err)
	}
}
