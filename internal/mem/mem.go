// Package mem provides the byte-addressable little-endian data memory used
// by the MR32 functional simulator. The address space is sparse (text,
// data and stack segments live far apart, following the SimpleScalar/SPIM
// layout), so storage is paged on demand through a two-level page
// directory: the top 10 address bits select a page table, the next 10 a
// page, and the low 12 the byte.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Conventional segment bases, matching the SPIM/SimpleScalar layout the
// benchmarks assume.
const (
	TextBase  uint32 = 0x00400000
	DataBase  uint32 = 0x10010000
	StackBase uint32 = 0x7fffeffc
)

const (
	pageShift  = 12
	pageSize   = 1 << pageShift
	pageMask   = pageSize - 1
	tableShift = 10
	tableSize  = 1 << tableShift // pages per table, and tables per directory
	tableMask  = tableSize - 1
)

type page [pageSize]byte

// pageTable maps the middle ten address bits to pages.
type pageTable [tableSize]*page

// Memory is a sparse byte-addressable memory. The zero value is ready to
// use. Memory is not safe for concurrent mutation.
type Memory struct {
	dir    [tableSize]*pageTable
	npages int
}

// New returns an empty memory.
func New() *Memory { return &Memory{} }

// page returns the page holding addr, allocating it (and its page table)
// on first touch — loads touch pages as well as stores, so Footprint
// counts every page the program has addressed.
func (m *Memory) page(addr uint32) *page {
	if t := m.dir[addr>>(pageShift+tableShift)]; t != nil {
		if p := t[addr>>pageShift&tableMask]; p != nil {
			return p
		}
	}
	return m.alloc(addr)
}

// alloc is page's slow path, kept out of line so the accessors' fast
// path stays small and needs no stack frame for it.
//
//go:noinline
func (m *Memory) alloc(addr uint32) *page {
	t := m.dir[addr>>(pageShift+tableShift)]
	if t == nil {
		t = new(pageTable)
		m.dir[addr>>(pageShift+tableShift)] = t
	}
	p := t[addr>>pageShift&tableMask]
	if p == nil {
		p = new(page)
		t[addr>>pageShift&tableMask] = p
		m.npages++
	}
	return p
}

// unaligned reports a misaligned access, out of line for the same reason.
//
//go:noinline
func unaligned(access string, addr uint32) error {
	return fmt.Errorf("mem: unaligned %s at %#x", access, addr)
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint32) byte {
	return m.page(addr)[addr&pageMask]
}

// StoreByte writes the byte at addr.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr)[addr&pageMask] = v
}

// LoadHalf returns the little-endian 16-bit value at addr. addr must be
// 2-byte aligned.
func (m *Memory) LoadHalf(addr uint32) (uint16, error) {
	if addr&1 != 0 {
		return 0, unaligned("halfword load", addr)
	}
	off := addr & pageMask
	return binary.LittleEndian.Uint16(m.page(addr)[off : off+2]), nil
}

// StoreHalf writes the little-endian 16-bit value at addr. addr must be
// 2-byte aligned.
func (m *Memory) StoreHalf(addr uint32, v uint16) error {
	if addr&1 != 0 {
		return unaligned("halfword store", addr)
	}
	off := addr & pageMask
	binary.LittleEndian.PutUint16(m.page(addr)[off:off+2], v)
	return nil
}

// LoadWord returns the little-endian 32-bit value at addr. addr must be
// 4-byte aligned.
func (m *Memory) LoadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, unaligned("word load", addr)
	}
	off := addr & pageMask
	return binary.LittleEndian.Uint32(m.page(addr)[off : off+4]), nil
}

// StoreWord writes the little-endian 32-bit value at addr. addr must be
// 4-byte aligned.
func (m *Memory) StoreWord(addr uint32, v uint32) error {
	if addr&3 != 0 {
		return unaligned("word store", addr)
	}
	off := addr & pageMask
	binary.LittleEndian.PutUint32(m.page(addr)[off:off+4], v)
	return nil
}

// LoadFloat returns the float32 stored at addr.
func (m *Memory) LoadFloat(addr uint32) (float32, error) {
	w, err := m.LoadWord(addr)
	return math.Float32frombits(w), err
}

// StoreFloat writes a float32 at addr.
func (m *Memory) StoreFloat(addr uint32, v float32) error {
	return m.StoreWord(addr, math.Float32bits(v))
}

// StoreWords writes a word slice starting at addr.
func (m *Memory) StoreWords(addr uint32, ws []uint32) error {
	for i, w := range ws {
		if err := m.StoreWord(addr+uint32(4*i), w); err != nil {
			return err
		}
	}
	return nil
}

// LoadWords reads n consecutive words starting at addr.
func (m *Memory) LoadWords(addr uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		w, err := m.LoadWord(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// StoreFloats writes a float32 slice starting at addr.
func (m *Memory) StoreFloats(addr uint32, fs []float32) error {
	for i, f := range fs {
		if err := m.StoreFloat(addr+uint32(4*i), f); err != nil {
			return err
		}
	}
	return nil
}

// LoadFloats reads n consecutive float32 values starting at addr.
func (m *Memory) LoadFloats(addr uint32, n int) ([]float32, error) {
	out := make([]float32, n)
	for i := range out {
		f, err := m.LoadFloat(addr + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// LoadString reads a NUL-terminated string starting at addr, capped at max
// bytes to bound the damage of a missing terminator.
func (m *Memory) LoadString(addr uint32, max int) string {
	var b []byte
	for i := 0; i < max; i++ {
		c := m.LoadByte(addr + uint32(i))
		if c == 0 {
			break
		}
		b = append(b, c)
	}
	return string(b)
}

// Footprint returns the number of distinct pages touched and the total
// bytes they occupy — a cheap capacity diagnostic.
func (m *Memory) Footprint() (pages int, bytes int) {
	return m.npages, m.npages * pageSize
}

// TouchedPages lists the base addresses of allocated pages in ascending
// order. Useful in tests and debug dumps.
func (m *Memory) TouchedPages() []uint32 {
	out := make([]uint32, 0, m.npages)
	for ti, t := range m.dir {
		if t == nil {
			continue
		}
		for pi, p := range t {
			if p != nil {
				out = append(out, uint32(ti)<<(pageShift+tableShift)|uint32(pi)<<pageShift)
			}
		}
	}
	return out
}
