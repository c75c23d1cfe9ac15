package fpga

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"omegago/internal/omega"
)

// PipelineSim below is a cycle-accurate simulator of one ω pipeline
// instance, the software analogue of the post-place-and-route
// simulations the paper extracts its FPGA performance numbers from. It
// is the test oracle for the package's closed-form cycle model: it
// clocks operands through the stage chain of Fig. 8 one cycle at a
// time, demonstrating the initiation interval of 1 (one new ω accepted
// per cycle, one result emitted per cycle after the fill latency), and
// evaluates the datapath in the hardware's operation order:
//
//	ω = ((LS+RS)·(l·(W−l))) / ((C(l,2)+C(W−l,2)) · (TS−LS−RS + ε·l·(W−l)))
//
// which is algebraically identical to omega.Score but associates
// differently; TestHardwareScoreMatchesReference bounds the difference
// at machine precision.

// OmegaOp is one border combination's operand bundle.
type OmegaOp struct {
	LS, RS, TS float64
	KL, KR     float64
	LN, RN     float64
	Eps        float64
}

// HardwareScore evaluates the datapath in the stage order of Fig. 8.
func HardwareScore(op OmegaOp) float64 {
	cross1 := op.TS - op.LS             // sub1
	cross := cross1 - op.RS             // sub2
	num1 := op.LS + op.RS               // addLR
	den1 := op.KL + op.KR               // addK
	lnrn := op.LN * op.RN               // (factor pre-computed on chip)
	num := num1 * lnrn                  // mulN
	den := den1 * (cross + op.Eps*lnrn) // mulD
	return num / den                    // div
}

// ReferenceScore evaluates the same operands through the canonical
// software expression (omega.Score).
func ReferenceScore(op OmegaOp) float64 {
	return omega.Score(op.LS, op.RS, op.TS, op.KL, op.KR, op.LN, op.RN, op.Eps)
}

// PipeOutput is one result leaving the pipeline.
type PipeOutput struct {
	Cycle int64 // clock cycle of emission
	Seq   int   // feed order
	Omega float64
}

// PipelineSim clocks one pipeline instance.
type PipelineSim struct {
	depth    int
	cycle    int64
	fed      int
	inflight []pipeSlot
	emitted  int64
}

type pipeSlot struct {
	doneAt int64
	seq    int
	value  float64
}

// NewPipelineSim builds a simulator with the package's stage chain.
func NewPipelineSim() *PipelineSim {
	return &PipelineSim{depth: Depth()}
}

// Cycle returns the current clock cycle.
func (p *PipelineSim) Cycle() int64 { return p.cycle }

// Emitted returns the number of results produced so far.
func (p *PipelineSim) Emitted() int64 { return p.emitted }

// Clock advances one clock cycle, optionally accepting one new operand
// bundle (II = 1: at most one per cycle by construction), and returns
// any result emitted this cycle.
func (p *PipelineSim) Clock(op *OmegaOp) (PipeOutput, bool) {
	p.cycle++
	if op != nil {
		p.inflight = append(p.inflight, pipeSlot{
			doneAt: p.cycle + int64(p.depth),
			seq:    p.fed,
			value:  HardwareScore(*op),
		})
		p.fed++
	}
	if len(p.inflight) > 0 && p.inflight[0].doneAt == p.cycle {
		out := PipeOutput{Cycle: p.cycle, Seq: p.inflight[0].seq, Omega: p.inflight[0].value}
		p.inflight = p.inflight[1:]
		p.emitted++
		return out, true
	}
	return PipeOutput{}, false
}

// Drain clocks without new input until the pipeline is empty, returning
// the remaining outputs.
func (p *PipelineSim) Drain() []PipeOutput {
	var out []PipeOutput
	for len(p.inflight) > 0 {
		if o, ok := p.Clock(nil); ok {
			out = append(out, o)
		}
	}
	return out
}

// RunTrace feeds the operand sequence at full rate and drains, returning
// all outputs in order plus the total cycle count — the quantity the
// closed-form model approximates with Depth()+N.
func RunTrace(ops []OmegaOp) ([]PipeOutput, int64) {
	sim := NewPipelineSim()
	var outs []PipeOutput
	for i := range ops {
		if o, ok := sim.Clock(&ops[i]); ok {
			outs = append(outs, o)
		}
	}
	outs = append(outs, sim.Drain()...)
	return outs, sim.Cycle()
}

func randomOp(rng *rand.Rand) OmegaOp {
	ln := float64(rng.Intn(50) + 2)
	rn := float64(rng.Intn(50) + 2)
	ls := rng.Float64() * ln * (ln - 1) / 2
	rs := rng.Float64() * rn * (rn - 1) / 2
	cross := rng.Float64() * ln * rn
	return OmegaOp{
		LS: ls, RS: rs, TS: ls + rs + cross,
		KL: ln * (ln - 1) / 2, KR: rn * (rn - 1) / 2,
		LN: ln, RN: rn, Eps: 1e-5,
	}
}

func TestHardwareScoreMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		op := randomOp(rng)
		hw := HardwareScore(op)
		sw := ReferenceScore(op)
		scale := math.Max(1, math.Abs(sw))
		return math.Abs(hw-sw) <= 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPipelineFillLatency(t *testing.T) {
	sim := NewPipelineSim()
	op := randomOp(rand.New(rand.NewSource(1)))
	// First result must appear exactly Depth() cycles after the feed.
	if _, ok := sim.Clock(&op); ok {
		t.Fatal("output on feed cycle")
	}
	for c := 0; c < Depth()-1; c++ {
		if _, ok := sim.Clock(nil); ok {
			t.Fatalf("output at cycle %d, before fill latency %d", c+2, Depth())
		}
	}
	out, ok := sim.Clock(nil)
	if !ok {
		t.Fatal("no output after fill latency")
	}
	if out.Cycle != int64(Depth())+1 || out.Seq != 0 {
		t.Errorf("first output %+v, want cycle %d seq 0", out, Depth()+1)
	}
}

func TestPipelineInitiationIntervalOne(t *testing.T) {
	// Feeding N ops back-to-back must emit one result per cycle after
	// the fill: total cycles = N + Depth().
	rng := rand.New(rand.NewSource(2))
	const n = 500
	ops := make([]OmegaOp, n)
	for i := range ops {
		ops[i] = randomOp(rng)
	}
	outs, cycles := RunTrace(ops)
	if len(outs) != n {
		t.Fatalf("%d outputs, want %d", len(outs), n)
	}
	if cycles != int64(n+Depth()) {
		t.Errorf("total cycles %d, want %d (II=1)", cycles, n+Depth())
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Cycle != outs[i-1].Cycle+1 {
			t.Fatalf("gap between outputs %d and %d (cycles %d → %d): II violated",
				i-1, i, outs[i-1].Cycle, outs[i].Cycle)
		}
		if outs[i].Seq != i {
			t.Fatalf("out-of-order emission at %d", i)
		}
	}
	// Values match the hardware datapath.
	for i, o := range outs {
		if o.Omega != HardwareScore(ops[i]) {
			t.Fatalf("output %d value mismatch", i)
		}
	}
}

func TestPipelineBubbles(t *testing.T) {
	// Feeding every other cycle halves the emission rate, never reorders.
	rng := rand.New(rand.NewSource(3))
	sim := NewPipelineSim()
	var outs []PipeOutput
	for i := 0; i < 40; i++ {
		op := randomOp(rng)
		if o, ok := sim.Clock(&op); ok {
			outs = append(outs, o)
		}
		if o, ok := sim.Clock(nil); ok { // bubble
			outs = append(outs, o)
		}
	}
	outs = append(outs, sim.Drain()...)
	if len(outs) != 40 {
		t.Fatalf("%d outputs, want 40", len(outs))
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Cycle-outs[i-1].Cycle != 2 {
			t.Fatalf("bubble spacing wrong at %d", i)
		}
	}
	if sim.Emitted() != 40 {
		t.Errorf("Emitted = %d", sim.Emitted())
	}
}

func TestPipelineThroughputMatchesClosedFormModel(t *testing.T) {
	// The cycle-accurate trace must agree with ModelThroughput for one
	// instance: throughput = inner/(Depth()+inner) per cycle.
	rng := rand.New(rand.NewSource(4))
	inner := 1000
	ops := make([]OmegaOp, inner)
	for i := range ops {
		ops[i] = randomOp(rng)
	}
	_, cycles := RunTrace(ops)
	perCycle := float64(inner) / float64(cycles)
	model := ModelThroughput(ZCU102, 1, inner) / (ZCU102.ClockMHz * 1e6)
	if math.Abs(perCycle-model) > 1e-9 {
		t.Errorf("trace rate %.6f ω/cycle vs model %.6f", perCycle, model)
	}
}
