package faultspace

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/cluster"
	"faultspace/internal/service"
	"faultspace/internal/telemetry"
)

// field classifies one option: whether it feeds the campaign identity
// hash, and a non-default value to set it to.
type field struct {
	identity bool
	set      any
}

const (
	bearing   = true
	invariant = false
)

// TestOptionCensus lists every exported field of every struct that
// describes a campaign, a worker, a served scan or the service, and
// classifies it as identity-bearing or not. A field added to one of them
// fails the test until it is listed here — and so until someone has
// decided whether it may change outcomes — and for each listed field the
// campaign identity, as that struct's own entry point reports it, must
// change exactly when the field is identity-bearing: checkpoints and
// archive entries are keyed by that hash, so an outcome-relevant option
// outside it would resume or serve the wrong results, and an
// outcome-invariant one inside it would split the archive.
func TestOptionCensus(t *testing.T) {
	prog := hiProgram(t)
	target := Target(prog)
	_, space, err := target.PrepareSpace(SpaceMemory, DefaultMaxGoldenCycles)
	if err != nil {
		t.Fatal(err)
	}
	bypass, err := campaign.ObjectiveByName("bypass")
	if err != nil {
		t.Fatal(err)
	}
	var (
		open      = context.Background() // a Context that is never cancelled
		reg       = NewTelemetry()
		logf      = func(string, ...any) {}
		onResult  = func(int, campaign.Outcome) {}
		trace     = NewTraceID()
		specFrame []byte // a submission for the service rows
		stopRow   = make(chan struct{})
	)
	if spec, err := cluster.NewSpec(target, SpaceMemory, campaign.Config{}, DefaultMaxGoldenCycles, uint64(len(space.Classes))); err != nil {
		t.Fatal(err)
	} else {
		specFrame = cluster.EncodeSpec(spec)
	}

	census := []struct {
		base   any // a working configuration of the struct
		fields map[string]field
		// identity reports the campaign identity under the given options.
		identity func(t *testing.T, opts reflect.Value) [32]byte
	}{
		{
			base: ScanOptions{},
			fields: map[string]field{
				"TimeoutFactor":    {bearing, 8.0},
				"Space":            {bearing, SpaceRegisters},
				"Objective":        {bearing, "bypass"},
				"Workers":          {invariant, 7},
				"Strategy":         {invariant, StrategyRerun},
				"Predecode":        {invariant, true},
				"MaxGoldenCycles":  {invariant, 1 << 20},
				"Checkpoint":       {invariant, "scan.ckpt"},
				"Resume":           {invariant, true},
				"OnProgress":       {invariant, func(Progress) {}},
				"ProgressInterval": {invariant, time.Minute},
				"Context":          {invariant, open},
				"Telemetry":        {invariant, reg},
			},
			identity: func(t *testing.T, opts reflect.Value) [32]byte {
				id, err := CampaignIdentity(prog, opts.Interface().(ScanOptions))
				if err != nil {
					t.Fatal(err)
				}
				return id
			},
		},
		{
			base: campaign.Config{},
			fields: map[string]field{
				"TimeoutFactor":    {bearing, 8.0},
				"TimeoutSlack":     {bearing, 1024},
				"Objective":        {bearing, bypass},
				"Workers":          {invariant, 7},
				"Strategy":         {invariant, StrategyRerun},
				"Predecode":        {invariant, true},
				"Telemetry":        {invariant, reg},
				"Spans":            {invariant, telemetry.NewSpanRecorder(trace, "census", 0)},
				"OnResult":         {invariant, onResult},
				"OnProgress":       {invariant, func(Progress) {}},
				"ProgressInterval": {invariant, time.Minute},
				"Context":          {invariant, open},
			},
			identity: func(t *testing.T, opts reflect.Value) [32]byte {
				id, err := target.CampaignIdentity(SpaceMemory, opts.Interface().(campaign.Config))
				if err != nil {
					t.Fatal(err)
				}
				return id
			},
		},
		{
			// A worker's options: whatever they are, the service admits it
			// (a differing identity is answered 409) and the campaign it
			// executes keeps its identity.
			base: cluster.WorkerOptions{},
			fields: map[string]field{
				"WorkerID":    {invariant, "census"},
				"Workers":     {invariant, 2},
				"Strategy":    {invariant, StrategyRerun},
				"Predecode":   {invariant, true},
				"BaseBackoff": {invariant, time.Millisecond},
				"MaxBackoff":  {invariant, time.Millisecond},
				"Context":     {invariant, open},
				"Telemetry":   {invariant, reg},
				"Client":      {invariant, &http.Client{}},
				"Logf":        {invariant, logf},
			},
			identity: func(t *testing.T, opts reflect.Value) [32]byte {
				return servedIdentity(t, prog, ServeOptions{}, opts.Interface().(JoinOptions))
			},
		},
		{
			// A served scan's options: the embedded campaign options are
			// the campaign, the rest is how it is served.
			base: ServeOptions{},
			fields: map[string]field{
				"ScanOptions":       {bearing, ScanOptions{TimeoutFactor: 8}},
				"UnitSize":          {invariant, 3},
				"LeaseTTL":          {invariant, time.Minute},
				"OnClusterProgress": {invariant, func(ClusterProgress) {}},
				"OnListen":          {invariant, func(string) {}},
			},
			identity: func(t *testing.T, opts reflect.Value) [32]byte {
				return servedIdentity(t, prog, opts.Interface().(ServeOptions), JoinOptions{})
			},
		},
		{
			// The service's options: a submission is admitted under the
			// identity its spec announces, whatever the service's settings.
			base: service.Options{},
			fields: map[string]field{
				"Dir":             {invariant, t.TempDir()},
				"MaxArchiveBytes": {invariant, 1 << 20},
				"MaxActive":       {invariant, 1},
				"MaxQueued":       {invariant, 1},
				"UnitSize":        {invariant, 3},
				"LeaseTTL":        {invariant, time.Minute},
				"Telemetry":       {invariant, reg},
				"Logf":            {invariant, logf},
			},
			identity: func(t *testing.T, opts reflect.Value) [32]byte {
				svc, err := service.New(opts.Interface().(service.Options))
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Shutdown()
				rec := httptest.NewRecorder()
				svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(specFrame)))
				var info CampaignInfo
				if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusAccepted {
					t.Fatalf("submit: HTTP %d %q (%v)", rec.Code, rec.Body, err)
				}
				return infoIdentity(t, info)
			},
		},
		{
			// The root package's service options, the same promise end to
			// end: ServeCampaigns admits a submission under the identity
			// SubmitCampaign computed. The row's Interrupt is stopRow, which
			// the identity function closes, as it closes its own otherwise.
			base: CampaignServiceOptions{},
			fields: map[string]field{
				"ArchiveDir":      {invariant, t.TempDir()},
				"MaxArchiveBytes": {invariant, 1 << 20},
				"MaxActive":       {invariant, 1},
				"MaxQueued":       {invariant, 1},
				"UnitSize":        {invariant, 3},
				"LeaseTTL":        {invariant, time.Minute},
				"LocalWorkers":    {invariant, 1},
				"WorkerOptions":   {invariant, JoinOptions{Workers: 2}},
				"Interrupt":       {invariant, (<-chan struct{})(stopRow)},
				"Telemetry":       {invariant, reg},
				"OnListen":        {invariant, func(string) {}},
				"Logf":            {invariant, logf},
			},
			identity: func(t *testing.T, opts reflect.Value) [32]byte {
				o := opts.Interface().(CampaignServiceOptions)
				stop := stopRow
				if o.Interrupt == nil {
					stop = make(chan struct{})
					o.Interrupt = stop
				}
				listen := o.OnListen
				addr := make(chan string, 1)
				o.OnListen = func(a string) {
					if listen != nil {
						listen(a)
					}
					addr <- a
				}
				served := make(chan error, 1)
				go func() { served <- ServeCampaigns("127.0.0.1:0", o) }()
				info, err := SubmitCampaign(<-addr, prog, ScanOptions{}, "")
				close(stop)
				if err := <-served; err != nil {
					t.Fatalf("ServeCampaigns: %v", err)
				}
				if err != nil {
					t.Fatal(err)
				}
				return infoIdentity(t, info)
			},
		},
	}

	for _, c := range census {
		typ := reflect.TypeOf(c.base)
		t.Run(typ.String(), func(t *testing.T) {
			base := c.identity(t, reflect.ValueOf(c.base))
			if base == ([32]byte{}) {
				t.Fatal("identity must be non-zero")
			}
			listed := 0
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if !f.IsExported() {
					continue
				}
				row, ok := c.fields[f.Name]
				if !ok {
					t.Errorf("%s.%s is not in the census: list it, and say whether it may change outcomes", typ, f.Name)
					continue
				}
				listed++
				opts := reflect.New(typ).Elem()
				opts.Set(reflect.ValueOf(c.base))
				opts.Field(i).Set(reflect.ValueOf(row.set).Convert(f.Type))
				if reflect.DeepEqual(opts.Field(i).Interface(), reflect.ValueOf(c.base).Field(i).Interface()) {
					t.Errorf("%s.%s: the census value %v is what the base already has", typ, f.Name, row.set)
				}
				if changed := c.identity(t, opts) != base; changed != row.identity {
					t.Errorf("%s.%s = %v: identity changed = %v, census says identity-bearing = %v",
						typ, f.Name, row.set, changed, row.identity)
				}
			}
			if listed != len(c.fields) {
				t.Errorf("the census lists %d fields of %s, %d exist", len(c.fields), typ, listed)
			}
		})
	}
}

// servedIdentity serves the program with ServeScan to one JoinScan
// worker and returns the identity of the campaign it ran; sopts.OnListen
// still hears the address.
func servedIdentity(t *testing.T, prog *Program, sopts ServeOptions, jopts JoinOptions) [32]byte {
	t.Helper()
	listen := sopts.OnListen
	addr := make(chan string, 1)
	sopts.OnListen = func(a string) {
		if listen != nil {
			listen(a)
		}
		addr <- a
	}
	joined := make(chan error, 1)
	go func() { joined <- JoinScan(<-addr, jopts) }()
	res, err := ServeScan(prog, "127.0.0.1:0", sopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatalf("JoinScan: %v", err)
	}
	return res.Identity
}

// infoIdentity decodes a campaign ID, which must be an identity hash.
func infoIdentity(t *testing.T, info CampaignInfo) [32]byte {
	t.Helper()
	var id [32]byte
	if n, err := hex.Decode(id[:], []byte(info.ID)); err != nil || n != len(id) {
		t.Fatalf("campaign ID %q is not an identity hash", info.ID)
	}
	return id
}
