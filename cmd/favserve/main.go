// Command favserve runs a campaign service: a long-lived, multi-tenant
// coordinator that accepts campaign submissions over HTTP, runs them
// against a shared worker fleet with per-tenant fair scheduling, and
// archives every report content-addressed by the campaign identity
// hash. A duplicate submission — same program image, fault-space kind
// and timeout budget — is answered from the archive byte-identically
// without executing a single experiment.
//
// Usage:
//
//	favserve [flags]
//
// Examples:
//
//	favserve -archive /var/lib/favserve -workers 2   # self-contained service
//	favserve -addr :9321                             # serve only; workers join with
//	                                                 #   favscan -join host:9321
//	favscan -submit host:9321 -tenant alice sync2    # submit + wait + report
//
// SIGINT drains the service gracefully: queued campaigns are cancelled,
// running ones stop granting leases, in-flight leases drain, and the
// archive is flushed before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"faultspace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "favserve:", err)
		os.Exit(1)
	}
}

// run executes one favserve invocation; service chatter goes to errW.
func run(args []string, w, errW io.Writer) error {
	fs := flag.NewFlagSet("favserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":9321", "listen address for the campaign service")
		archiveDir = fs.String("archive", "", "directory of the content-addressed result archive (empty = in-memory only)")
		archiveMax = fs.Int64("archive-max", 0, "archive size cap in bytes; LRU entries are evicted beyond it (0 = unbounded)")
		maxActive  = fs.Int("max-active", 0, "campaigns running concurrently (default 2)")
		maxQueued  = fs.Int("max-queued", 0, "queued campaigns across all tenants before 429 backpressure (default 16)")
		unitSize   = fs.Int("unit-size", 0, "classes per leased work unit (default 256)")
		leaseTTL   = fs.Duration("lease", 0, "work-unit lease TTL before reassignment (default 10s)")
		workers    = fs.Int("workers", 0, "in-process fleet workers executing campaigns (0 = serve only; workers join with favscan -join)")
		parallel   = fs.Int("parallel", 0, "experiment executors per in-process worker (0 = GOMAXPROCS)")
		predec     = fs.Bool("predecode", true, "in-process workers execute via the pre-decoded dispatch stream")
		verbose    = fs.Bool("verbose", false, "log campaign and worker life-cycle events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("favserve takes no positional arguments: campaigns arrive via favscan -submit")
	}

	reg := faultspace.NewTelemetry()

	// Graceful SIGINT: drain leases, flush the archive, then exit zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer context.AfterFunc(ctx, func() {
		fmt.Fprintln(errW, "favserve: interrupt — draining")
	})() // deregistered before stop cancels ctx

	opts := faultspace.CampaignServiceOptions{
		ArchiveDir:      *archiveDir,
		MaxArchiveBytes: *archiveMax,
		MaxActive:       *maxActive,
		MaxQueued:       *maxQueued,
		UnitSize:        *unitSize,
		LeaseTTL:        *leaseTTL,
		LocalWorkers:    *workers,
		WorkerOptions: faultspace.JoinOptions{
			Workers:   *parallel,
			Predecode: *predec,
		},
		Interrupt: ctx.Done(),
		Telemetry: reg,
		OnListen: func(bound string) {
			fmt.Fprintf(errW, "favserve: serving campaigns on %s\n", bound)
		},
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(errW, format+"\n", args...)
		}
	}
	if err := faultspace.ServeCampaigns(*addr, opts); err != nil {
		return err
	}
	fmt.Fprintln(errW, "favserve: drained")
	return nil
}
