package noc

import (
	"fmt"

	"gem5rtl/internal/ckpt"
	"gem5rtl/internal/sim"
)

// frontState rides in-flight packets' sender-state stacks, so it must
// checkpoint with them.
func (s *frontState) SenderStateKind() uint8 { return ckpt.XbarFrontState }

// EncodeSenderState writes the originating front-port index.
func (s *frontState) EncodeSenderState(w *ckpt.Writer) { w.Int(s.front) }

func init() {
	ckpt.RegisterSenderState(ckpt.XbarFrontState, func(r *ckpt.Reader) any {
		return &frontState{front: r.Int()}
	})
}

// SaveState captures the crossbar's in-flight bookkeeping: per-front
// outstanding counts and layer occupancy, the forwarding counters, and every
// per-port response/request queue with its retry flags.
func (x *Xbar) SaveState(w *ckpt.Writer) error {
	w.Section("noc." + x.cfg.Name)
	w.Int(len(x.fronts))
	w.Int(len(x.downs))
	for _, o := range x.outstanding {
		w.Int(o)
	}
	for _, b := range x.ingressBusy {
		w.U64(uint64(b))
	}
	for _, b := range x.egressBusy {
		w.U64(uint64(b))
	}
	w.U64(x.Forwarded)
	w.U64(x.Responses)
	for i := range x.fronts {
		if err := x.fronts[i].SaveState(w); err != nil {
			return err
		}
		if err := x.respQs[i].SaveState(w); err != nil {
			return err
		}
	}
	for i := range x.reqQs {
		if err := x.reqQs[i].SaveState(w); err != nil {
			return err
		}
	}
	return w.Err()
}

// RestoreState reinstates the crossbar state into a freshly built instance
// with the same port counts.
func (x *Xbar) RestoreState(r *ckpt.Reader) error {
	r.Section("noc." + x.cfg.Name)
	if nf, nd := r.Int(), r.Int(); r.Err() == nil && (nf != len(x.fronts) || nd != len(x.downs)) {
		return fmt.Errorf("noc %s: checkpoint shape %d/%d does not match %d/%d",
			x.cfg.Name, nf, nd, len(x.fronts), len(x.downs))
	}
	for i := range x.outstanding {
		x.outstanding[i] = r.Int()
	}
	for i := range x.ingressBusy {
		x.ingressBusy[i] = sim.Tick(r.U64())
	}
	for i := range x.egressBusy {
		x.egressBusy[i] = sim.Tick(r.U64())
	}
	x.Forwarded = r.U64()
	x.Responses = r.U64()
	for i := range x.fronts {
		if err := x.fronts[i].RestoreState(r); err != nil {
			return err
		}
		if err := x.respQs[i].RestoreState(r); err != nil {
			return err
		}
	}
	for i := range x.reqQs {
		if err := x.reqQs[i].RestoreState(r); err != nil {
			return err
		}
	}
	return r.Err()
}
