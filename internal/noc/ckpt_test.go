package noc

import (
	"bytes"
	"testing"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/port"
	"gem5rtl/internal/sim"
)

type nocSink struct{}

func (nocSink) RecvTimingResp(*port.Packet) bool { return true }
func (nocSink) RecvReqRetry()                    {}
func (nocSink) RecvTimingReq(*port.Packet) bool  { return true }
func (nocSink) RecvRespRetry()                   {}

func buildTestXbar(q *sim.EventQueue) *Xbar {
	x := New(Config{Name: "xb", Latency: 1000, WidthBytes: 16, ClockTick: 500, MaxOutstanding: 8}, q, 2, 1)
	for i := 0; i < 2; i++ {
		up := port.NewRequestPort("up", nocSink{})
		port.Bind(up, x.FrontPort(i))
	}
	down := port.NewResponsePort("down", nocSink{})
	port.Bind(x.DownPort(0), down)
	return x
}

func saveXbar(t *testing.T, x *Xbar) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	if err := x.SaveState(w); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestXbarRoundTrip pushes traffic (forward and response directions) through
// a crossbar mid-flight and round-trips its state, checking that queued
// packets with frontState sender state survive.
func TestXbarRoundTrip(t *testing.T) {
	q := sim.NewEventQueue()
	x := buildTestXbar(q)

	// In-flight requests from both fronts (queued, not yet drained).
	for i := 0; i < 2; i++ {
		pkt := port.NewReadPacket(uint64(0x100*i), 64)
		if !x.FrontPort(i).Peer().SendTimingReq(pkt) {
			t.Fatal("request refused")
		}
	}
	// A response heading back up (carries frontState until delivered).
	resp := port.NewReadPacket(0x300, 64)
	if !x.FrontPort(0).Peer().SendTimingReq(resp) {
		t.Fatal("request refused")
	}
	q.RunUntil(2_000) // deliver requests downstream
	resp.MakeResponse()
	resp.AllocateData()
	x.downs[0].Peer().SendTimingResp(resp)

	blob := saveXbar(t, x)

	q2 := sim.NewEventQueue()
	x2 := buildTestXbar(q2)
	if err := x2.RestoreState(ckpt.NewReader(bytes.NewReader(blob))); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := saveXbar(t, x2); !bytes.Equal(got, blob) {
		t.Error("re-saved state differs from original checkpoint")
	}
	if x2.Forwarded != x.Forwarded || x2.Responses != x.Responses {
		t.Errorf("counters = %d/%d, want %d/%d", x2.Forwarded, x2.Responses, x.Forwarded, x.Responses)
	}
	if x2.outstanding[0] != x.outstanding[0] {
		t.Errorf("outstanding = %v, want %v", x2.outstanding, x.outstanding)
	}

	// Shape mismatch must be refused.
	bad := New(Config{Name: "xb"}, sim.NewEventQueue(), 3, 1)
	if err := bad.RestoreState(ckpt.NewReader(bytes.NewReader(blob))); err == nil {
		t.Fatal("shape mismatch not detected")
	}
}
