package service

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/frame"
	"faultspace/internal/telemetry"
)

// Fleet handshake frame kinds, in the one kind namespace of
// internal/frame.
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
	return frame.Append(nil, msgFleetHello, frame.AppendString(nil, h.WorkerID))
}

// DecodeFleetHello decodes a fleet handshake frame.
func DecodeFleetHello(data []byte) (FleetHello, error) {
	payload, err := frame.Single(data, msgFleetHello)
	if err != nil {
		return FleetHello{}, err
	}
	r := frame.NewReader(payload, errMessage)
	h := FleetHello{WorkerID: r.String()}
	if err := r.Finish(); err != nil {
		return FleetHello{}, err
	}
	return h, nil
}

// EncodeServiceHello encodes a fleet handshake response frame.
func EncodeServiceHello(h ServiceHello) []byte {
	p := make([]byte, 0, 16+len(h.Spec))
	p = append(p, h.Status)
	p = frame.AppendBytes(p, h.Spec)
	return frame.Append(nil, msgServiceHello, p)
}

// DecodeServiceHello decodes a fleet handshake response frame; the
// returned Spec aliases data.
func DecodeServiceHello(data []byte) (ServiceHello, error) {
	payload, err := frame.Single(data, msgServiceHello)
	if err != nil {
		return ServiceHello{}, err
	}
	r := frame.NewReader(payload, errMessage)
	h := ServiceHello{Status: r.U8()}
	if spec := r.Bytes(); len(spec) > 0 {
		h.Spec = spec
	}
	if err := r.Finish(); err != nil {
		return ServiceHello{}, err
	}
	return h, nil
}

// errMessage marks a fleet or worker message whose payload does not
// parse.
var errMessage = errors.New("service: malformed worker message")

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
		resp, status, err := cluster.PostOnce(ctx, opts.Client, url, hello)
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
