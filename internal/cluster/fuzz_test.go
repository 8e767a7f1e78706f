package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"faultspace/internal/checkpoint"
	"faultspace/internal/cluster"
)

// FuzzWorkUnitDecode is the cluster mirror of FuzzCheckpointDecode: the
// wire-protocol decoder must error on mutated or truncated frames, never
// panic, and everything it accepts must re-encode to the same bytes.
func FuzzWorkUnitDecode(f *testing.F) {
	spec := cluster.EncodeSpec(cluster.Spec{
		Proto: cluster.ProtoVersion, Name: "hi/baseline", Code: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Image: []byte{0xaa, 0x55},
		RAMSize: 2, SpaceKind: 1, TimeoutFactor: 4, Classes: 16, LeaseTTL: 10 * time.Second, Objective: "bypass",
	})
	f.Add(cluster.EncodeWorkUnit(cluster.WorkUnit{Status: cluster.UnitGranted, ID: 1, Token: 2, Classes: []int{0, 1, 2, 250, 4096}}))
	f.Add(cluster.EncodeWorkUnit(cluster.WorkUnit{Status: cluster.UnitWait}))
	f.Add(cluster.EncodeWorkUnit(cluster.WorkUnit{Status: cluster.UnitDone}))
	f.Add(cluster.EncodeWorkUnit(cluster.WorkUnit{Status: cluster.UnitShutdown, ID: ^uint64(0), Token: ^uint64(0)}))
	f.Add(spec)
	// A lease TTL whose third is a zero ticker period: refused, not run.
	f.Add(cluster.EncodeSpec(cluster.Spec{Proto: cluster.ProtoVersion, Name: "hi/baseline", LeaseTTL: 2}))
	f.Add(cluster.EncodeSubmission(cluster.Submission{WorkerID: "w", Entries: []checkpoint.Entry{{Class: 1, Outcome: 3}}}))
	f.Add([]byte{})
	f.Add([]byte("W garbage that is not a frame"))
	f.Add(cluster.EncodeHello(cluster.Hello{WorkerID: "f1"}))
	f.Add(cluster.EncodeHello(cluster.Hello{}))
	f.Add(cluster.EncodeHelloReply(cluster.HelloReply{Status: cluster.HelloGranted, Spec: spec}))

	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := cluster.DecodeWorkUnit(data)
		if err == nil {
			// Whatever the decoder accepts must satisfy the protocol
			// invariants and survive a semantic round trip.
			if u.Status > cluster.UnitShutdown {
				t.Errorf("accepted unit with invalid status %d", u.Status)
			}
			for i := 1; i < len(u.Classes); i++ {
				if u.Classes[i] <= u.Classes[i-1] {
					t.Errorf("accepted unit with non-ascending classes: %v", u.Classes)
				}
			}
			again, err := cluster.DecodeWorkUnit(cluster.EncodeWorkUnit(u))
			if err != nil || !reflect.DeepEqual(again, u) {
				t.Errorf("unit round trip failed: %+v vs %+v (%v)", again, u, err)
			}
		}
		// The sibling decoders share the reader; they must be equally
		// panic-free on arbitrary input.
		if s, err := cluster.DecodeSpec(data); err == nil && s.LeaseTTL < cluster.MinLeaseTTL {
			t.Errorf("accepted a spec with lease TTL %v", s.LeaseTTL)
		}
		cluster.DecodeSubmission(data)
		cluster.DecodeHeartbeat(data)
		cluster.DecodeLeaseRequest(data)
		// A hello registers its worker, so like every signed message it
		// must name one.
		if h, err := cluster.DecodeHello(data); err == nil && h.WorkerID == "" {
			t.Error("accepted a hello without a worker name")
		}
		if h, err := cluster.DecodeHelloReply(data); err == nil && h.Status > cluster.HelloShutdown {
			t.Errorf("accepted a hello reply with invalid status %d", h.Status)
		}
	})
}
