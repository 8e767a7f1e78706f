package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/cluster"
	"faultspace/internal/telemetry"
)

// Fleet handshake frame kinds, in the same CRC framing namespace as the
// cluster wire protocol ('S', 'L', 'W', 'U', 'B') and the archive
// entries ('E', 'D').
const (
	msgFleetHello   = 'F'
	msgServiceHello = 'V'
)

// ServiceHello statuses.
const (
	// FleetGranted carries the spec of the campaign assigned to the
	// worker.
	FleetGranted uint8 = iota
	// FleetWait means no campaign is running right now; ask again.
	FleetWait
	// FleetShutdown means the service is draining; the worker should
	// exit.
	FleetShutdown
)

// FleetHello is a fleet worker's handshake: unlike the single-campaign
// protocol it does not presume a campaign, it asks to be assigned one.
type FleetHello struct {
	WorkerID string
}

// ServiceHello answers a FleetHello. Spec, present when Status is
// FleetGranted, is the assigned campaign's encoded spec frame.
type ServiceHello struct {
	Status uint8
	Spec   []byte
}

// EncodeFleetHello encodes a fleet handshake frame.
func EncodeFleetHello(h FleetHello) []byte {
	p := make([]byte, 0, 8+len(h.WorkerID))
	p = appendString(p, h.WorkerID)
	return checkpoint.AppendFrame(nil, msgFleetHello, p)
}

// DecodeFleetHello decodes a fleet handshake frame.
func DecodeFleetHello(frame []byte) (FleetHello, error) {
	payload, err := framePayload(frame, msgFleetHello)
	if err != nil {
		return FleetHello{}, err
	}
	id, rest, err := takeString(payload)
	if err != nil || len(rest) != 0 {
		return FleetHello{}, fmt.Errorf("service: malformed fleet hello")
	}
	return FleetHello{WorkerID: id}, nil
}

// EncodeServiceHello encodes a fleet handshake response frame.
func EncodeServiceHello(h ServiceHello) []byte {
	p := make([]byte, 0, 16+len(h.Spec))
	p = append(p, h.Status)
	p = appendString(p, string(h.Spec))
	return checkpoint.AppendFrame(nil, msgServiceHello, p)
}

// DecodeServiceHello decodes a fleet handshake response frame.
func DecodeServiceHello(frame []byte) (ServiceHello, error) {
	payload, err := framePayload(frame, msgServiceHello)
	if err != nil {
		return ServiceHello{}, err
	}
	if len(payload) < 1 {
		return ServiceHello{}, fmt.Errorf("service: malformed service hello")
	}
	status := payload[0]
	spec, rest, err := takeString(payload[1:])
	if err != nil || len(rest) != 0 {
		return ServiceHello{}, fmt.Errorf("service: malformed service hello")
	}
	h := ServiceHello{Status: status}
	if spec != "" {
		h.Spec = []byte(spec)
	}
	return h, nil
}

// framePayload parses one frame and checks its kind.
func framePayload(frame []byte, kind byte) ([]byte, error) {
	k, payload, next, err := checkpoint.ReadFrame(frame, 0)
	if err != nil {
		return nil, err
	}
	if k != kind || next != len(frame) {
		return nil, fmt.Errorf("service: unexpected frame")
	}
	return payload, nil
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func takeString(p []byte) (string, []byte, error) {
	var n uint64
	var shift uint
	i := 0
	for {
		if i >= len(p) || shift > 63 {
			return "", nil, fmt.Errorf("service: bad varint")
		}
		b := p[i]
		i++
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		shift += 7
	}
	if uint64(len(p)-i) < n {
		return "", nil, fmt.Errorf("service: string cut")
	}
	return string(p[i : i+int(n)]), p[i+int(n):], nil
}

// FleetOptions parameterizes JoinFleet.
type FleetOptions struct {
	// ID names the worker (default "f<pid>").
	ID string
	// Worker carries the per-campaign execution options (strategy,
	// parallelism, predecode, retry budget). Identity, Interrupt
	// and Telemetry interact with the fleet loop as described below;
	// BaseBackoff and MaxBackoff (defaults 50ms / 2s) also space the
	// handshake retries after a transport failure.
	Worker cluster.WorkerOptions
	// Interrupt, when closed, stops the fleet worker at once: a held
	// handshake is abandoned, a campaign in progress is dropped as
	// cluster.WorkerOptions.Interrupt describes.
	Interrupt <-chan struct{}
	// TelemetryFor, when non-nil, selects the telemetry registry for
	// each assigned campaign — the hook the service uses to point its
	// in-process workers at the campaign's own registry, keeping
	// scan/predecode counters isolated per campaign. When nil, the
	// Worker.Telemetry registry (possibly nil) is used for every
	// campaign.
	TelemetryFor func(spec cluster.Spec) *telemetry.Registry
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Logf, when non-nil, receives fleet worker log lines.
	Logf func(format string, args ...any)
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.ID == "" {
		o.ID = fmt.Sprintf("f%d", os.Getpid())
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	o.Worker = o.Worker.WithDefaults()
	return o
}

// fleetFailureBudget bounds consecutive handshake transport failures
// before JoinFleet concludes the service is gone for good. A service
// that drains between two handshakes never gets to answer
// FleetShutdown, so connection errors are the only signal left; the
// budget mirrors the cluster worker's bounded request retries rather
// than asking a dead address forever.
const fleetFailureBudget = 25

// JoinFleet attaches a worker to a campaign service for the long haul:
// it handshakes, runs whatever campaign the service assigns via
// cluster.JoinCampaign, and re-handshakes for the next one when that
// campaign completes or shuts down. The handshake is a held request:
// the service parks it until a campaign is assignable or it drains, so
// an idle worker starts on a submission at once instead of at its next
// poll. It returns nil when the service announces shutdown,
// cluster.ErrUnreachable when the service stays unreachable across
// consecutive handshake attempts, and campaign.ErrInterrupted when
// FleetOptions.Interrupt fires.
func JoinFleet(baseURL string, opts FleetOptions) error {
	opts = opts.withDefaults()
	base := strings.TrimSuffix(baseURL, "/")
	hello := EncodeFleetHello(FleetHello{WorkerID: opts.ID})
	ctx, stop := cluster.InterruptContext(opts.Interrupt)
	defer stop()
	url := base + "/v1/handshake" + cluster.HoldQuery(opts.Client)
	failures := 0
	backoff := opts.Worker.BaseBackoff
	for {
		asked := time.Now()
		resp, status, err := postOnce(ctx, opts.Client, url, hello)
		if ctx.Err() != nil {
			return campaign.ErrInterrupted
		}
		if err != nil || status != http.StatusOK {
			if err == nil {
				err = fmt.Errorf("service: handshake: HTTP %d", status)
			}
			if failures++; failures >= fleetFailureBudget {
				return fmt.Errorf("%w: fleet handshake after %d attempts: %v",
					cluster.ErrUnreachable, failures, err)
			}
			opts.Logf("fleet %s: handshake failed: %v", opts.ID, err)
			select {
			case <-opts.Interrupt:
				return campaign.ErrInterrupted
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > opts.Worker.MaxBackoff {
				backoff = opts.Worker.MaxBackoff
			}
			continue
		}
		failures, backoff = 0, opts.Worker.BaseBackoff
		h, err := DecodeServiceHello(resp)
		if err != nil {
			return fmt.Errorf("service: handshake: %w", err)
		}
		switch h.Status {
		case FleetShutdown:
			opts.Logf("fleet %s: service shut down", opts.ID)
			return nil
		case FleetWait:
			// The hold ran out with nothing to do — or came back early from
			// a service that does not hold; then wait out the spacing.
			if !cluster.Pace(asked, cluster.AskSpacing, opts.Interrupt) {
				return campaign.ErrInterrupted
			}
			continue
		}
		spec, err := cluster.DecodeSpec(h.Spec)
		if err != nil {
			return fmt.Errorf("service: handshake spec: %w", err)
		}
		wopts := opts.Worker
		wopts.ID = opts.ID
		wopts.Interrupt = opts.Interrupt
		wopts.Client = opts.Client
		wopts.Logf = opts.Logf
		if opts.TelemetryFor != nil {
			wopts.Telemetry = opts.TelemetryFor(spec)
		}
		err = cluster.JoinCampaign(base, spec, wopts)
		if err != nil && !errors.Is(err, cluster.ErrShutdown) {
			return err
		}
		// Campaign finished or was cancelled; ask for the next one.
	}
}

func postOnce(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}
