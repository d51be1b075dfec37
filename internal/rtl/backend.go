package rtl

// Engine names a Model evaluation engine. There are two: EngineBytecode,
// the production engine every simulation runs (internal/rtlc), and
// EngineClosure, the closure-compiled reference evaluator built into this
// package that tests and the kernel benchmark compare it against. The two
// are bit-exact on all architectural state (signal values, memories, cycle
// counter), so VCD traces, checkpoints, StateHash digests and
// fault-injection campaigns are engine-independent.
type Engine string

// The engine names.
const (
	// EngineClosure is the reference engine (Compile): every expression
	// tree is lowered to a tree of Go closures at compile time. It anchors
	// the bit-exactness of the bytecode engine, the way
	// NewReferenceEventQueue anchors the calendar queue.
	EngineClosure Engine = "closure"
	// EngineBytecode is the optimizing bytecode compiler + register-machine
	// VM implemented by internal/rtlc (rtlc.CompileEngine), which builds
	// its Model through CompileBackend.
	EngineBytecode Engine = "bytecode"
)

// Backend is the per-cycle evaluation core of a non-reference engine (the
// bytecode VM of internal/rtlc), installed by CompileBackend. The Model
// keeps ownership of the architectural state surface (Peek/SetInput, VCD,
// checkpoints, fault injection); the backend owns how that state advances.
//
// The contract mirrors the closure engine exactly:
//
//   - Vals returns the signal-value storage, one uint64 per circuit signal.
//     The Model adopts this slice as its value store, so external reads and
//     writes (SetInput, checkpoint restore, bit flips) are immediately
//     visible to the backend and vice versa — no synchronisation step.
//   - Eval settles the combinational logic against current inputs, register
//     and memory state, exactly like the closure engine's levelised pass.
//   - Tick performs one full clock cycle minus the Model-side bookkeeping:
//     Eval, capture of register next-state and memory writes with pre-edge
//     values, commit, Eval. The Model increments the cycle counter and dumps
//     VCD afterwards.
//   - Invalidate tells the backend the Model mutated state behind its back
//     (Reset, checkpoint restore, fault injection, memory poke), so any
//     activity-gating state must be discarded. Input pokes via SetInput do
//     not require Invalidate; backends detect them by snapshotting inputs.
//   - Skipped reports how many sequential next-state evaluations the backend
//     elided through activity gating (0 for an ungated backend). Skipping
//     must never change results — it is observable only through this counter
//     and wall-clock time.
type Backend interface {
	// Vals returns the backing signal-value slice (len == number of signals).
	Vals() []uint64
	// Eval settles combinational logic.
	Eval()
	// Tick advances one clock: eval, capture, commit, eval.
	Tick()
	// Invalidate discards activity-gating state after an external mutation.
	Invalidate()
	// Skipped counts sequential updates elided by activity gating.
	Skipped() uint64
}

// CombOrder levelises the circuit's combinational assignments: the returned
// indices into Combs order every assignment after the assignments producing
// the signals it reads. Engine implementations lower assignments in this
// order so a single linear pass settles the logic. Returns an error naming a
// signal on any combinational cycle.
func (c *Circuit) CombOrder() ([]int, error) { return levelize(c) }
