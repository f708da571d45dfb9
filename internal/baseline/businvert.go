// Package baseline holds the per-word reference coders of the related
// work: Bus-Invert coding, dictionary compression, and the Gray and T0
// address-bus codes. Each one is driven one word at a time, as the bus
// sees it. The registered schemes in internal/scheme measure the same
// codes through word-parallel batch kernels, and the tests hold those
// kernels to these coders bit for bit, and the root package's two-run
// simulate oracle drives Bus-Invert and the dictionary per fetch. Only
// tests drive the coders; BuildDictionary and GrayEncode are also used by
// the production kernels.
//
// Bus-Invert coding (Stan & Burleson, IEEE TVLSI 1995) is the
// general-purpose low-power bus code the paper's related work discusses:
// before each transfer the sender compares the Hamming distance between
// the bus state and the next value; if it exceeds half the width, the
// complement is transmitted instead and an extra invert line tells the
// receiver to undo it. It needs no application knowledge, which is
// exactly why the paper's application-specific transformations beat it
// on instruction streams.
package baseline

import "math/bits"

// BusInvert is a stateful bus-invert encoder/transition counter for a
// 32-line data bus plus the mandatory invert signal line.
type BusInvert struct {
	width      int
	last       uint32 // bus state (possibly inverted data)
	lastInvert bool
	started    bool
	dataTrans  uint64 // transitions on the data lines
	invTrans   uint64 // transitions on the invert line
	words      uint64
}

// NewBusInvert creates a coder for a bus of the given width (1..32 data
// lines).
func NewBusInvert(width int) *BusInvert {
	if width < 1 {
		width = 1
	}
	if width > 32 {
		width = 32
	}
	return &BusInvert{width: width}
}

func (b *BusInvert) mask() uint32 {
	if b.width >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(b.width) - 1
}

// Transfer encodes one value and accumulates the transitions it causes on
// the data lines and the invert line. It returns the value actually driven
// onto the bus and whether it was inverted.
func (b *BusInvert) Transfer(v uint32) (driven uint32, inverted bool) {
	m := b.mask()
	v &= m
	if !b.started {
		b.started = true
		b.last = v
		b.words = 1
		return v, false
	}
	b.words++
	h := bits.OnesCount32((v ^ b.last) & m)
	if 2*h > b.width {
		v = ^v & m
		inverted = true
	}
	b.dataTrans += uint64(bits.OnesCount32((v ^ b.last) & m))
	if inverted != b.lastInvert {
		b.invTrans++
	}
	b.last, b.lastInvert = v, inverted
	return v, inverted
}

// DataTransitions returns the accumulated transitions on the data lines.
func (b *BusInvert) DataTransitions() uint64 { return b.dataTrans }

// InvertTransitions returns the transitions on the invert control line.
func (b *BusInvert) InvertTransitions() uint64 { return b.invTrans }

// Total returns all transitions including the invert line — the honest
// cost of the scheme.
func (b *BusInvert) Total() uint64 { return b.dataTrans + b.invTrans }

// Words returns the number of values transferred.
func (b *BusInvert) Words() uint64 { return b.words }

// Encode runs a whole word stream through bus-invert coding and returns
// the total transition count (data lines + invert line).
func Encode(words []uint32, width int) uint64 {
	bi := NewBusInvert(width)
	for _, w := range words {
		bi.Transfer(w)
	}
	return bi.Total()
}

// Decode undoes bus-invert given the driven values and invert flags; it
// exists so tests can prove the code is information-preserving.
func Decode(driven []uint32, inverted []bool, width int) []uint32 {
	m := uint32(1)<<uint(width) - 1
	if width >= 32 {
		m = ^uint32(0)
	}
	out := make([]uint32, len(driven))
	for i, v := range driven {
		if inverted[i] {
			v = ^v & m
		}
		out[i] = v & m
	}
	return out
}
