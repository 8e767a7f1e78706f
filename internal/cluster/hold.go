package cluster

import (
	"context"
	"net/http"
	"time"
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

// ParseHold reads the ?wait= parameter of a request: 0 when absent,
// capped at MaxHold. A malformed or negative value is answered 400.
func ParseHold(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	v := r.URL.Query().Get("wait")
	if v == "" {
		return 0, true
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		http.Error(w, "cluster: malformed wait parameter", http.StatusBadRequest)
		return 0, false
	}
	if d > MaxHold {
		d = MaxHold
	}
	return d, true
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

// InterruptContext returns a context that is cancelled when interrupt
// is closed, so a request parked at the server never delays an
// interrupt. The caller must call stop, which also ends the goroutine
// watching the channel.
func InterruptContext(interrupt <-chan struct{}) (ctx context.Context, stop context.CancelFunc) {
	ctx, stop = context.WithCancel(context.Background())
	if interrupt != nil {
		go func() {
			select {
			case <-interrupt:
				stop()
			case <-ctx.Done():
			}
		}()
	}
	return ctx, stop
}

// Pace sleeps out what is left of spacing since asked and reports false
// when interrupt closes first. After a hold that ran its course nothing
// is left and it returns at once.
func Pace(asked time.Time, spacing time.Duration, interrupt <-chan struct{}) bool {
	rest := spacing - time.Since(asked)
	if rest <= 0 {
		return true
	}
	t := time.NewTimer(rest)
	defer t.Stop()
	select {
	case <-interrupt:
		return false
	case <-t.C:
		return true
	}
}
