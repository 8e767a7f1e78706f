package faultspace

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"faultspace/internal/cluster"
)

// TestServeHeaderTimeoutSparesHeldRequests: a connection that stalls is
// closed once its read bound runs out — half a header line by
// readHeaderTimeout, a body shorter than announced by readTimeout, a
// kept-alive connection with no next request by idleTimeout — while a
// handshake parked at the same server with ?wait=, held longer than any
// of them, is answered in full: the server bounds how long a request may
// take to arrive, never how long its answer may be held.
func TestServeHeaderTimeoutSparesHeldRequests(t *testing.T) {
	defer func(h, r, i time.Duration) { readHeaderTimeout, readTimeout, idleTimeout = h, r, i }(readHeaderTimeout, readTimeout, idleTimeout)
	readHeaderTimeout, readTimeout, idleTimeout = 100*time.Millisecond, 600*time.Millisecond, 100*time.Millisecond
	const hold = 1500 * time.Millisecond
	addr := startCampaignService(t, CampaignServiceOptions{})

	type answer struct {
		hello cluster.HelloReply
		took  time.Duration
		err   error
	}
	parked := make(chan answer, 1)
	go func() {
		start := time.Now()
		resp, err := http.Post("http://"+addr+"/v1/handshake?wait="+hold.String(), "application/octet-stream",
			bytes.NewReader(cluster.EncodeHello(cluster.Hello{WorkerID: "parked"})))
		if err != nil {
			parked <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			parked <- answer{err: err}
			return
		}
		h, err := cluster.DecodeHelloReply(body)
		parked <- answer{hello: h, took: time.Since(start), err: err}
	}()

	for _, row := range []struct {
		name, send string
		// within is when the server must have hung up: past its own bound,
		// short of the next larger one.
		within time.Duration
	}{
		{"stalled header", "GET /v1/status HTT", readTimeout},
		{"stalled body", "POST /v1/handshake HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nabc", hold},
		// Idle, the server falls back to readTimeout when there is no
		// idleTimeout: half of it tells the two apart.
		{"idle connection", "GET /v1/status HTTP/1.1\r\nHost: x\r\n\r\n", readTimeout / 2},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, row.send); err != nil {
			t.Fatal(err)
		}
		stalled := time.Now()
		conn.SetReadDeadline(stalled.Add(10 * time.Second))
		// The server may answer first (400, or the status itself); what
		// matters is that it hangs up.
		_, err = io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: %v; want the server to close it", row.name, err)
		}
		if d := time.Since(stalled); d >= row.within {
			t.Errorf("%s: closed after %v, want within %v", row.name, d, row.within)
		}
	}

	a := <-parked
	if a.err != nil {
		t.Fatalf("parked handshake: %v", a.err)
	}
	if a.hello.Status != cluster.HelloWait || a.took < hold {
		t.Errorf("parked handshake answered status %d after %v, want wait after the full %v hold",
			a.hello.Status, a.took, hold)
	}
}

// TestServiceCallRejectsOversizedResponse: a report above the wire bound
// is an error naming the bound, not a body cut short and handed to the
// archive decoder.
func TestServiceCallRejectsOversizedResponse(t *testing.T) {
	const bound = 16 << 20
	// A body of exactly the bound is read whole and reaches the decoder.
	for _, size := range []int{bound + 1, bound} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(bytes.Repeat([]byte{' '}, size))
		}))
		_, err := CampaignReport(srv.URL, "x")
		srv.Close()
		if named := err != nil && strings.Contains(err.Error(), "16777216-byte bound"); err == nil || named != (size > bound) {
			t.Errorf("report of %d bytes: err = %v; want the bound named exactly when it is exceeded", size, err)
		}
	}
}

// TestServeMetricsServesProfiles: profiling rides the metrics listener,
// opt-in through its address in every mode that takes -metrics — the
// campaign server has none (TestDebugEndpointsOffByDefault).
func TestServeMetricsServesProfiles(t *testing.T) {
	bound, stop, err := ServeMetrics("127.0.0.1:0", NewTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/metrics", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: HTTP %d, want 200", path, resp.StatusCode)
		}
	}
}
