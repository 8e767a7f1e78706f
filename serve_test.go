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

// TestServeHeaderTimeoutSparesHeldRequests: a connection that sends half
// a header line and stalls is closed once readHeaderTimeout runs out,
// while a handshake parked at the same server with ?wait= — held four
// timeouts long — is answered in full: the server bounds how long a
// request may take to arrive, never how long its answer may be held.
func TestServeHeaderTimeoutSparesHeldRequests(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 150 * time.Millisecond
	const hold = 4 * 150 * time.Millisecond
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

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/status HTT"); err != nil {
		t.Fatal(err)
	}
	stalled := time.Now()
	conn.SetReadDeadline(stalled.Add(10 * time.Second))
	// The server may answer 400 first; what matters is that it hangs up.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection: %v; want the server to close it", err)
	}
	if d := time.Since(stalled); d >= hold {
		t.Errorf("stalled connection closed after %v, want within the %v header timeout (well before the %v hold)",
			d, readHeaderTimeout, hold)
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
