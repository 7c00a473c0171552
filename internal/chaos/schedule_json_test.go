package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A generated schedule must survive a JSON round trip exactly: witnesses are
// saved and replayed by value, so any lossy encoding would replay a different
// fault sequence than the one that produced the divergence.
func TestScheduleJSONRoundTripGenerated(t *testing.T) {
	sch := Generate(Options{
		Seed:       42,
		Bookies:    []string{"bookie-0", "bookie-1", "bookie-2"},
		Brokers:    []string{"broker-0", "broker-1"},
		JiffyNodes: []string{"mem-0"},
	})
	if len(sch) == 0 {
		t.Fatal("generated schedule is empty")
	}
	raw, err := json.Marshal(sch)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Schedule
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(sch, back) {
		t.Fatalf("round trip diverged:\n  in:  %+v\n  out: %+v", sch, back)
	}
	// A second marshal must be byte-identical — schedules are compared as
	// serialized witnesses.
	raw2, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("re-marshal not byte-identical:\n  %s\n  %s", raw, raw2)
	}
}

// The conformance fault kinds (duplicate delivery, dropped acks) round-trip
// too, including sub-millisecond offsets and N fields.
func TestScheduleJSONRoundTripConformanceOps(t *testing.T) {
	sch := Schedule{
		{At: 333 * time.Microsecond, Op: OpDuplicate, Kind: KindSub, Target: "orders/workers"},
		{At: time.Millisecond + 333*time.Microsecond, Op: OpDrop, Kind: KindSub, Target: "orders/workers", N: 2},
		{At: 5 * time.Millisecond, Op: OpSlow, Kind: KindBroker, Target: "broker-0", Latency: 1500 * time.Microsecond},
	}
	raw, err := json.Marshal(sch)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"op":"duplicate"`) || !strings.Contains(string(raw), `"kind":"sub"`) {
		t.Fatalf("wire form missing conformance ops: %s", raw)
	}
	var back Schedule
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(sch, back) {
		t.Fatalf("round trip diverged:\n  in:  %+v\n  out: %+v", sch, back)
	}
}
