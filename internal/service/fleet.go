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
// poll. opts keep their cluster.Join meaning per assigned campaign
// (WorkerID defaults to "f<pid>"); BaseBackoff and MaxBackoff also space
// the handshake retries after a transport failure, and Interrupt also
// abandons a held handshake. telemetryFor, when non-nil, selects the
// registry for each assigned campaign in place of opts.Telemetry — the
// service points its in-process workers at the campaign's own registry,
// keeping scan counters isolated per campaign. It returns nil when the
// service announces shutdown, cluster.ErrUnreachable when the service
// stays unreachable across consecutive handshake attempts, and
// campaign.ErrInterrupted when opts.Interrupt fires.
func JoinFleet(baseURL string, opts cluster.WorkerOptions, telemetryFor func(cluster.Spec) *telemetry.Registry) error {
	if opts.WorkerID == "" {
		opts.WorkerID = fmt.Sprintf("f%d", os.Getpid())
	}
	opts = opts.WithDefaults()
	base := strings.TrimSuffix(baseURL, "/")
	hello := EncodeFleetHello(FleetHello{WorkerID: opts.WorkerID})
	ctx, stop := cluster.InterruptContext(opts.Interrupt)
	defer stop()
	url := base + "/v1/handshake" + cluster.HoldQuery(opts.Client)
	failures := 0
	backoff := opts.BaseBackoff
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
			opts.Logf("fleet %s: handshake failed: %v", opts.WorkerID, err)
			select {
			case <-opts.Interrupt:
				return campaign.ErrInterrupted
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > opts.MaxBackoff {
				backoff = opts.MaxBackoff
			}
			continue
		}
		failures, backoff = 0, opts.BaseBackoff
		h, err := DecodeServiceHello(resp)
		if err != nil {
			return fmt.Errorf("service: handshake: %w", err)
		}
		switch h.Status {
		case FleetShutdown:
			opts.Logf("fleet %s: service shut down", opts.WorkerID)
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
		wopts := opts
		if telemetryFor != nil {
			wopts.Telemetry = telemetryFor(spec)
		}
		err = cluster.JoinCampaign(base, spec, wopts)
		if err != nil && !errors.Is(err, cluster.ErrShutdown) {
			return err
		}
		// Campaign finished or was cancelled; ask for the next one.
	}
}
