// Package cpu implements a functional in-order simulator for the MR32
// instruction set: one instruction fetched and executed per step, exactly
// the embedded front end the paper's experiments assume. Its job in the
// power-encoding pipeline is to produce the dynamic instruction fetch
// stream (as sequential index ranges through a FetchSink, or per fetch
// through the OnFetch hook) and the per-PC execution profile that drives
// hot-loop selection; architectural state is simulated precisely so
// benchmark kernels can be validated against golden references.
package cpu

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"imtrans/internal/isa"
	"imtrans/internal/mem"
)

// Program is a contiguous text segment: machine words laid out from Base.
type Program struct {
	Base  uint32
	Words []uint32
}

// Index returns the word index of pc within the program.
func (p Program) Index(pc uint32) int { return int(pc-p.Base) >> 2 }

// Syscall numbers, following the SPIM convention used by the workloads.
const (
	SysPrintInt    = 1
	SysPrintFloat  = 2
	SysPrintString = 4
	SysExit        = 10
	SysPrintChar   = 11
	SysExit2       = 17
)

// CPU is the architectural state of one MR32 core plus simulation
// bookkeeping. Construct with New.
type CPU struct {
	PC  uint32
	GPR [32]uint32
	FPR [32]float32
	HI  uint32
	LO  uint32
	FCC bool // floating-point condition flag (FCC0)

	Mem    *mem.Memory
	Stdout io.Writer

	// OnFetch, when non-nil, observes every instruction fetch with the
	// program counter and the raw machine word on the instruction bus.
	// The power-encoding experiments attach their bus models here.
	OnFetch func(pc, word uint32)

	// OnData, when non-nil, observes data-memory traffic: the effective
	// address and the 32-bit value on the data bus (sub-word accesses are
	// reported zero-extended, as a 32-bit bus would carry them). store
	// distinguishes writes from reads.
	OnData func(addr, value uint32, store bool)

	// Fetches, when non-nil, receives the fetch stream as maximal
	// sequential ranges of text indices: one AddRange per control
	// transfer that leaves the straight line, not one call per fetch.
	// Run delivers the last pending range when it returns; callers
	// driving Step directly call FlushFetches. Attach the sink before the
	// first instruction runs, and let only Run and Step move the PC.
	Fetches FetchSink

	// DataBus, when non-nil, accumulates the data-memory value bus of
	// the run inline (see DataBus).
	DataBus *DataBus

	// MaxInstructions aborts runaway programs; 0 means the default cap.
	MaxInstructions uint64

	prog      Program
	textBytes uint32 // text size in bytes; 0 when the segment wraps the address space
	decoded   []decoded
	profile   []uint64
	taken     uint64
	InstCount uint64
	Halted    bool
	ExitCode  int

	// The pending fetch range: it starts at text index rangeStart and
	// holds every fetch since InstCount was rangeBase.
	rangeStart int
	rangeBase  uint64
}

// decoded is a pre-decoded instruction plus the per-instruction flags
// the execution loop needs.
type decoded struct {
	isa.Inst
	branch bool
}

// FetchSink receives a fetch stream as ranges: AddRange(from, n) stands
// for the n fetches of text indices from, from+1, ..., from+n-1 in order.
type FetchSink interface {
	AddRange(from, n int)
}

// DataBus accumulates the data-memory value bus of a run: the access
// counts, the raw 32-bit value-bus transitions, and the transitions under
// Bus-Invert coding, invert line included. Sub-word accesses travel
// zero-extended, as OnData reports them. The first transfer establishes
// the bus state and costs nothing.
type DataBus struct {
	Loads, Stores uint64
	Transitions   uint64 // raw value-bus transitions
	BusInvert     uint64 // Bus-Invert transitions, invert line included

	last    uint32 // last raw value
	invMask uint64 // all ones while the invert line is high, else zero
	started bool
}

// transfer accounts one value on the bus. The Bus-Invert lines hold the
// last value or its complement, as the invert line says, so one popcount
// of the raw change serves both codings. Data values are irregular, so
// the coding decision is computed arithmetically rather than branched on.
func (d *DataBus) transfer(v uint32, store bool) {
	var st uint64
	if store {
		st = 1
	}
	d.Stores += st
	d.Loads += 1 - st
	if !d.started {
		d.started, d.last = true, v
		return
	}
	raw := uint64(bits.OnesCount32(v ^ d.last))
	d.Transitions += raw
	d.last = v
	// With mask m all ones, (x^m)+(m&33) is 32-x, else x. h is the
	// distance from the lines' state: raw, or 32-raw when they hold the
	// complement; driving the complement instead costs 32-h.
	h := (raw ^ d.invMask) + (d.invMask & 33)
	inv := uint64(int64(16-h) >> 63) // all ones when h > 16
	d.BusInvert += (h ^ inv) + (inv & 33) + (inv^d.invMask)&1
	d.invMask = inv
}

// Stats summarises the dynamic instruction mix of a run.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	BranchTaken  uint64
	Jumps        uint64
	FPOps        uint64
	PerOp        map[string]uint64 // mnemonic -> dynamic count
}

// Stats returns the instruction-mix counters accumulated so far.
func (c *CPU) Stats() Stats {
	s := Stats{
		Instructions: c.InstCount,
		BranchTaken:  c.taken,
		PerOp:        make(map[string]uint64),
	}
	// Every fetch of an instruction executes its op once, so the dynamic
	// op mix is the profile folded by opcode.
	var opCounts [128]uint64
	for i, n := range c.profile {
		opCounts[c.decoded[i].Op&127] += n
		if c.decoded[i].branch {
			s.Branches += n
		}
	}
	for op, n := range opCounts {
		if n == 0 {
			continue
		}
		o := isa.Op(op)
		s.PerOp[o.Name()] = n
		switch {
		case o.IsLoad():
			s.Loads += n
		case o.IsStore():
			s.Stores += n
		case o.IsJump():
			s.Jumps += n
		}
		if o.IsFP() {
			s.FPOps += n
		}
	}
	return s
}

// DefaultMaxInstructions bounds a Run when the caller sets no explicit cap.
const DefaultMaxInstructions = 2_000_000_000

// New creates a CPU with the program pre-decoded, PC at the program base,
// the stack pointer initialised, and an empty data memory attached if m is
// nil. Programs containing undecodable words fail immediately rather than
// at execution time.
func New(prog Program, m *mem.Memory) (*CPU, error) {
	if len(prog.Words) == 0 {
		return nil, fmt.Errorf("cpu: empty program")
	}
	dec := make([]decoded, len(prog.Words))
	for i, w := range prog.Words {
		in, err := isa.Decode(w)
		if err != nil {
			return nil, fmt.Errorf("cpu: word %d (pc %#x): %w", i, prog.Base+uint32(4*i), err)
		}
		dec[i] = decoded{Inst: in, branch: in.Op.IsBranch()}
	}
	if m == nil {
		m = mem.New()
	}
	c := &CPU{
		PC:      prog.Base,
		Mem:     m,
		Stdout:  io.Discard,
		prog:    prog,
		decoded: dec,
		profile: make([]uint64, len(prog.Words)),
	}
	// A segment whose end wraps the address space holds no fetchable pc.
	if end := prog.Base + uint32(4*len(prog.Words)); end > prog.Base {
		c.textBytes = end - prog.Base
	}
	c.GPR[isa.SP] = mem.StackBase
	c.GPR[isa.GP] = mem.DataBase + 0x8000
	return c, nil
}

// Program returns the program the CPU executes.
func (c *CPU) Program() Program { return c.prog }

// Profile returns the per-instruction execution counts, indexed like
// Program().Words. The slice aliases live state; copy before mutating.
func (c *CPU) Profile() []uint64 { return c.profile }

// Run executes instructions until the program exits via syscall, an
// execution error occurs, or the instruction cap is hit. An attached
// FetchSink has received every fetch of the run when Run returns.
func (c *CPU) Run() error {
	err := c.run()
	c.FlushFetches()
	return err
}

// FlushFetches delivers the pending fetch range to the FetchSink, if any.
// Run calls it on return; Step-driven callers call it when they stop.
func (c *CPU) FlushFetches() {
	if n := c.InstCount - c.rangeBase; n > 0 && c.Fetches != nil {
		c.Fetches.AddRange(c.rangeStart, int(n))
		c.rangeBase = c.InstCount
	}
}

func (c *CPU) run() error {
	max := c.MaxInstructions
	if max == 0 {
		max = DefaultMaxInstructions
	}
	if err := c.exec(max); err != nil {
		return err
	}
	if !c.Halted {
		return fmt.Errorf("cpu: instruction cap %d exceeded at pc %#x", max, c.PC)
	}
	return nil
}

// Step fetches, decodes and executes a single instruction.
func (c *CPU) Step() error {
	if c.Halted {
		return fmt.Errorf("cpu: step after halt")
	}
	return c.exec(c.InstCount + 1)
}

// exec fetches, decodes and executes instructions until the program
// halts, an instruction fails, or InstCount reaches stop. The loop lives
// here rather than around Step so the simulator pays no call per
// instruction.
func (c *CPU) exec(stop uint64) error {
	for !c.Halted && c.InstCount < stop {
		pc := c.PC
		// pc must be word-aligned and inside the text; off wraps past
		// textBytes when pc is below the base.
		off := pc - c.prog.Base
		if off >= c.textBytes || pc&3 != 0 {
			return fmt.Errorf("cpu: pc %#x outside text segment", pc)
		}
		idx := int(off >> 2)
		if c.OnFetch != nil {
			c.OnFetch(pc, c.prog.Words[idx])
		}
		c.profile[idx]++
		c.InstCount++
		in := &c.decoded[idx]
		next := pc + 4

		switch in.Op {
		case isa.OpSLL:
			c.setGPR(in.Rd, c.GPR[in.Rt]<<in.Shamt)
		case isa.OpSRL:
			c.setGPR(in.Rd, c.GPR[in.Rt]>>in.Shamt)
		case isa.OpSRA:
			c.setGPR(in.Rd, uint32(int32(c.GPR[in.Rt])>>in.Shamt))
		case isa.OpSLLV:
			c.setGPR(in.Rd, c.GPR[in.Rt]<<(c.GPR[in.Rs]&31))
		case isa.OpSRLV:
			c.setGPR(in.Rd, c.GPR[in.Rt]>>(c.GPR[in.Rs]&31))
		case isa.OpSRAV:
			c.setGPR(in.Rd, uint32(int32(c.GPR[in.Rt])>>(c.GPR[in.Rs]&31)))
		case isa.OpJR:
			next = c.GPR[in.Rs]
		case isa.OpJALR:
			c.setGPR(in.Rd, pc+4)
			next = c.GPR[in.Rs]
		case isa.OpSYSCALL:
			if err := c.syscall(); err != nil {
				return err
			}
		case isa.OpBREAK:
			return fmt.Errorf("cpu: break at pc %#x", pc)
		case isa.OpMFHI:
			c.setGPR(in.Rd, c.HI)
		case isa.OpMTHI:
			c.HI = c.GPR[in.Rs]
		case isa.OpMFLO:
			c.setGPR(in.Rd, c.LO)
		case isa.OpMTLO:
			c.LO = c.GPR[in.Rs]
		case isa.OpMULT:
			prod := int64(int32(c.GPR[in.Rs])) * int64(int32(c.GPR[in.Rt]))
			c.LO, c.HI = uint32(prod), uint32(prod>>32)
		case isa.OpMULTU:
			prod := uint64(c.GPR[in.Rs]) * uint64(c.GPR[in.Rt])
			c.LO, c.HI = uint32(prod), uint32(prod>>32)
		case isa.OpDIV:
			d := int32(c.GPR[in.Rt])
			if d == 0 {
				return fmt.Errorf("cpu: integer divide by zero at pc %#x", pc)
			}
			n := int32(c.GPR[in.Rs])
			c.LO, c.HI = uint32(n/d), uint32(n%d)
		case isa.OpDIVU:
			d := c.GPR[in.Rt]
			if d == 0 {
				return fmt.Errorf("cpu: integer divide by zero at pc %#x", pc)
			}
			n := c.GPR[in.Rs]
			c.LO, c.HI = n/d, n%d
		case isa.OpADD, isa.OpADDU:
			// Overflow traps are not modelled; ADD behaves as ADDU.
			c.setGPR(in.Rd, c.GPR[in.Rs]+c.GPR[in.Rt])
		case isa.OpSUB, isa.OpSUBU:
			c.setGPR(in.Rd, c.GPR[in.Rs]-c.GPR[in.Rt])
		case isa.OpAND:
			c.setGPR(in.Rd, c.GPR[in.Rs]&c.GPR[in.Rt])
		case isa.OpOR:
			c.setGPR(in.Rd, c.GPR[in.Rs]|c.GPR[in.Rt])
		case isa.OpXOR:
			c.setGPR(in.Rd, c.GPR[in.Rs]^c.GPR[in.Rt])
		case isa.OpNOR:
			c.setGPR(in.Rd, ^(c.GPR[in.Rs] | c.GPR[in.Rt]))
		case isa.OpSLT:
			c.setGPR(in.Rd, b2u(int32(c.GPR[in.Rs]) < int32(c.GPR[in.Rt])))
		case isa.OpSLTU:
			c.setGPR(in.Rd, b2u(c.GPR[in.Rs] < c.GPR[in.Rt]))
		case isa.OpBLTZ:
			if int32(c.GPR[in.Rs]) < 0 {
				next = branchTarget(pc, in.Imm)
			}
		case isa.OpBGEZ:
			if int32(c.GPR[in.Rs]) >= 0 {
				next = branchTarget(pc, in.Imm)
			}
		case isa.OpJ:
			next = (pc+4)&0xf0000000 | in.Target<<2
		case isa.OpJAL:
			c.setGPR(isa.RA, pc+4)
			next = (pc+4)&0xf0000000 | in.Target<<2
		case isa.OpBEQ:
			if c.GPR[in.Rs] == c.GPR[in.Rt] {
				next = branchTarget(pc, in.Imm)
			}
		case isa.OpBNE:
			if c.GPR[in.Rs] != c.GPR[in.Rt] {
				next = branchTarget(pc, in.Imm)
			}
		case isa.OpBLEZ:
			if int32(c.GPR[in.Rs]) <= 0 {
				next = branchTarget(pc, in.Imm)
			}
		case isa.OpBGTZ:
			if int32(c.GPR[in.Rs]) > 0 {
				next = branchTarget(pc, in.Imm)
			}
		case isa.OpADDI, isa.OpADDIU:
			c.setGPR(in.Rt, c.GPR[in.Rs]+uint32(in.Imm))
		case isa.OpSLTI:
			c.setGPR(in.Rt, b2u(int32(c.GPR[in.Rs]) < in.Imm))
		case isa.OpSLTIU:
			c.setGPR(in.Rt, b2u(c.GPR[in.Rs] < uint32(in.Imm)))
		case isa.OpANDI:
			c.setGPR(in.Rt, c.GPR[in.Rs]&uint32(uint16(in.Imm)))
		case isa.OpORI:
			c.setGPR(in.Rt, c.GPR[in.Rs]|uint32(uint16(in.Imm)))
		case isa.OpXORI:
			c.setGPR(in.Rt, c.GPR[in.Rs]^uint32(uint16(in.Imm)))
		case isa.OpLUI:
			c.setGPR(in.Rt, uint32(uint16(in.Imm))<<16)
		case isa.OpLB:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			b := c.Mem.LoadByte(addr)
			c.data(addr, uint32(b), false)
			c.setGPR(in.Rt, uint32(int32(int8(b))))
		case isa.OpLBU:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			b := c.Mem.LoadByte(addr)
			c.data(addr, uint32(b), false)
			c.setGPR(in.Rt, uint32(b))
		case isa.OpLH:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			v, err := c.Mem.LoadHalf(addr)
			if err != nil {
				return c.memErr(err)
			}
			c.data(addr, uint32(v), false)
			c.setGPR(in.Rt, uint32(int32(int16(v))))
		case isa.OpLHU:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			v, err := c.Mem.LoadHalf(addr)
			if err != nil {
				return c.memErr(err)
			}
			c.data(addr, uint32(v), false)
			c.setGPR(in.Rt, uint32(v))
		case isa.OpLW:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			v, err := c.Mem.LoadWord(addr)
			if err != nil {
				return c.memErr(err)
			}
			c.data(addr, v, false)
			c.setGPR(in.Rt, v)
		case isa.OpSB:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			c.data(addr, uint32(byte(c.GPR[in.Rt])), true)
			c.Mem.StoreByte(addr, byte(c.GPR[in.Rt]))
		case isa.OpSH:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			if err := c.Mem.StoreHalf(addr, uint16(c.GPR[in.Rt])); err != nil {
				return c.memErr(err)
			}
			c.data(addr, uint32(uint16(c.GPR[in.Rt])), true)
		case isa.OpSW:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			if err := c.Mem.StoreWord(addr, c.GPR[in.Rt]); err != nil {
				return c.memErr(err)
			}
			c.data(addr, c.GPR[in.Rt], true)
		case isa.OpLWC1:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			v, err := c.Mem.LoadWord(addr)
			if err != nil {
				return c.memErr(err)
			}
			c.data(addr, v, false)
			c.FPR[in.Ft] = math.Float32frombits(v)
		case isa.OpSWC1:
			addr := c.GPR[in.Rs] + uint32(in.Imm)
			if err := c.Mem.StoreWord(addr, math.Float32bits(c.FPR[in.Ft])); err != nil {
				return c.memErr(err)
			}
			c.data(addr, math.Float32bits(c.FPR[in.Ft]), true)
		case isa.OpMFC1:
			c.setGPR(in.Rt, math.Float32bits(c.FPR[in.Fs]))
		case isa.OpMTC1:
			c.FPR[in.Fs] = math.Float32frombits(c.GPR[in.Rt])
		case isa.OpBC1F:
			if !c.FCC {
				next = branchTarget(pc, in.Imm)
			}
		case isa.OpBC1T:
			if c.FCC {
				next = branchTarget(pc, in.Imm)
			}
		case isa.OpADDS:
			c.FPR[in.Fd] = c.FPR[in.Fs] + c.FPR[in.Ft]
		case isa.OpSUBS:
			c.FPR[in.Fd] = c.FPR[in.Fs] - c.FPR[in.Ft]
		case isa.OpMULS:
			c.FPR[in.Fd] = c.FPR[in.Fs] * c.FPR[in.Ft]
		case isa.OpDIVS:
			c.FPR[in.Fd] = c.FPR[in.Fs] / c.FPR[in.Ft]
		case isa.OpSQRTS:
			c.FPR[in.Fd] = float32(math.Sqrt(float64(c.FPR[in.Fs])))
		case isa.OpABSS:
			c.FPR[in.Fd] = float32(math.Abs(float64(c.FPR[in.Fs])))
		case isa.OpMOVS:
			c.FPR[in.Fd] = c.FPR[in.Fs]
		case isa.OpNEGS:
			c.FPR[in.Fd] = -c.FPR[in.Fs]
		case isa.OpCVTWS:
			c.FPR[in.Fd] = math.Float32frombits(uint32(int32(c.FPR[in.Fs])))
		case isa.OpCVTSW:
			c.FPR[in.Fd] = float32(int32(math.Float32bits(c.FPR[in.Fs])))
		case isa.OpCEQS:
			c.FCC = c.FPR[in.Fs] == c.FPR[in.Ft]
		case isa.OpCLTS:
			c.FCC = c.FPR[in.Fs] < c.FPR[in.Ft]
		case isa.OpCLES:
			c.FCC = c.FPR[in.Fs] <= c.FPR[in.Ft]
		default:
			return fmt.Errorf("cpu: unimplemented op %s at pc %#x", in.Op, pc)
		}
		if next != pc+4 {
			if in.branch {
				c.taken++
			}
			if c.Fetches != nil {
				// The straight line ends here; the next range starts at the
				// target (a target outside the text fails before its fetch,
				// leaving that range empty).
				c.FlushFetches()
				c.rangeStart = int(next-c.prog.Base) >> 2
			}
		}
		if !c.Halted {
			c.PC = next
		}
	}
	return nil
}

func (c *CPU) data(addr, v uint32, store bool) {
	if c.OnData != nil {
		c.OnData(addr, v, store)
	}
	if c.DataBus != nil {
		c.DataBus.transfer(v, store)
	}
}

func (c *CPU) setGPR(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.GPR[r] = v
	}
}

func branchTarget(pc uint32, off int32) uint32 {
	return pc + 4 + uint32(off)<<2
}

func (c *CPU) memErr(err error) error {
	return fmt.Errorf("cpu: pc %#x: %w", c.PC, err)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (c *CPU) syscall() error {
	switch c.GPR[isa.V0] {
	case SysPrintInt:
		fmt.Fprintf(c.Stdout, "%d", int32(c.GPR[isa.A0]))
	case SysPrintFloat:
		fmt.Fprintf(c.Stdout, "%g", c.FPR[12])
	case SysPrintString:
		fmt.Fprint(c.Stdout, c.Mem.LoadString(c.GPR[isa.A0], 1<<16))
	case SysPrintChar:
		fmt.Fprintf(c.Stdout, "%c", rune(c.GPR[isa.A0]))
	case SysExit:
		c.Halted = true
		c.ExitCode = 0
	case SysExit2:
		c.Halted = true
		c.ExitCode = int(int32(c.GPR[isa.A0]))
	default:
		return fmt.Errorf("cpu: unknown syscall %d at pc %#x", c.GPR[isa.V0], c.PC)
	}
	return nil
}
