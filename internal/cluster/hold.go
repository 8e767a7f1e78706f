package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"faultspace/internal/telemetry"
)

// Held requests. The three hand-offs on the submit→report path — an idle
// fleet worker waiting for a campaign, a worker told UnitWait waiting
// for a unit, a client waiting for its campaign to end — are requests
// the server parks until the answer changes, not polls. The client asks
// for it with ?wait=<duration> (time.ParseDuration syntax); a request
// without it is answered at once, which keeps the wire protocol and
// every client that does not ask exactly as they were.

// MaxHold caps how long a server parks one request, whatever the client
// asked for: long enough that an idle fleet costs a request per worker
// every half minute, short enough to stay under the idle timeouts of
// common proxies. Clients ask for it by default (HoldQuery).
const MaxHold = 30 * time.Second

// AskSpacing is the least time between two asks of a worker that were
// both answered "wait": when a held request comes back early — a server
// that ignores ?wait=, or one whose hold was cut short — the client
// sleeps out the remainder (Pace) so no server is ever busy-looped.
const AskSpacing = 200 * time.Millisecond

// Holds parks one kind of a server's held requests and counts them until
// their answers are out, so that a draining server waits for every held
// answer before it closes instead of cutting it. The zero value is ready
// to use; Held and Took, when set, count the requests parked right now
// and observe how long each was.
type Holds struct {
	Held *telemetry.Gauge
	Took *telemetry.Histogram

	mu   sync.Mutex
	n    int
	idle chan struct{} // closed when n returns to zero
}

// closed is a channel closed from the start.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Park holds a request until look finds its answer, the deadline passes
// or ctx ends — the one hold loop, under the campaign host's held ask and
// the service's held hello and status. look works out the answer and
// returns nil once it is the one to give, else the channel whose closing
// means "look again"; a deadline already passed looks once, and once ctx
// ends (the asker is gone) nothing looks again. The request counts as
// held until the caller calls answered, after writing.
func (h *Holds) Park(ctx context.Context, deadline time.Time, look func() <-chan struct{}) (answered func()) {
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
	start := time.Now()
	wake := look()
	if wake != nil && start.Before(deadline) {
		h.Held.Add(1)
		t := time.NewTimer(deadline.Sub(start))
	hold:
		for wake != nil {
			select {
			case <-wake:
			case <-t.C:
				break hold
			case <-ctx.Done():
				break hold
			}
			if ctx.Err() != nil {
				break
			}
			wake = look()
		}
		t.Stop()
		h.Held.Add(-1)
		h.Took.Observe(time.Since(start))
	}
	return h.done
}

func (h *Holds) done() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n--; h.n == 0 && h.idle != nil {
		close(h.idle)
		h.idle = nil
	}
}

// Idle returns a channel closed once no request is held.
func (h *Holds) Idle() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return closed
	}
	if h.idle == nil {
		h.idle = make(chan struct{})
	}
	return h.idle
}

// HoldQuery is the query string a client appends to ask for a held
// answer: MaxHold, or half the client's own timeout when it has one, so
// that the server always answers before the client gives up and a
// quiet hold is never mistaken for a dead server.
func HoldQuery(client *http.Client) string {
	d := MaxHold
	if client.Timeout > 0 && client.Timeout/2 < d {
		d = client.Timeout / 2
	}
	return "?wait=" + d.String()
}

// Pace sleeps out what is left of spacing since asked and reports false
// when ctx ends first. After a hold that ran its course nothing is left
// and it returns at once.
func Pace(ctx context.Context, asked time.Time, spacing time.Duration) bool {
	rest := spacing - time.Since(asked)
	if rest <= 0 {
		return true
	}
	t := time.NewTimer(rest)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
