package mem

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refMemory is the map-based reference model the page directory is held
// to: a byte map plus the set of pages any access (load or store) has
// touched.
type refMemory struct {
	bytes map[uint32]byte
	pages map[uint32]bool
}

func (r *refMemory) touch(addr uint32)         { r.pages[addr&^pageMask] = true }
func (r *refMemory) load(addr uint32) byte     { r.touch(addr); return r.bytes[addr] }
func (r *refMemory) store(addr uint32, v byte) { r.touch(addr); r.bytes[addr] = v }
func (r *refMemory) loadN(addr uint32, n int) (v uint32) {
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint32(r.load(addr+uint32(i)))
	}
	return v
}
func (r *refMemory) storeN(addr uint32, n int, v uint32) {
	for i := 0; i < n; i++ {
		r.store(addr+uint32(i), byte(v>>(8*i)))
	}
}

func (r *refMemory) touched() []uint32 {
	out := make([]uint32, 0, len(r.pages))
	for p := range r.pages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randAddr draws addresses across the whole 32-bit space, biased towards
// a few hot pages, page edges and the topmost page so accesses collide
// and straddle boundaries often.
func randAddr(rng *rand.Rand) uint32 {
	hot := []uint32{0, TextBase, DataBase, StackBase &^ pageMask, 0xfffff000, 0x7ffff000, 0x003ff000}
	switch rng.Intn(4) {
	case 0:
		return rng.Uint32()
	case 1:
		// Within a few bytes of a page edge, either side.
		return hot[rng.Intn(len(hot))] + pageSize - 4 + uint32(rng.Intn(8))
	default:
		return hot[rng.Intn(len(hot))] + uint32(rng.Intn(pageSize))
	}
}

func TestPageDirectoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := New()
	ref := &refMemory{bytes: map[uint32]byte{}, pages: map[uint32]bool{}}
	for step := 0; step < 200000; step++ {
		addr := randAddr(rng)
		v := rng.Uint32()
		switch op := rng.Intn(6); op {
		case 0:
			m.StoreByte(addr, byte(v))
			ref.store(addr, byte(v))
		case 1:
			if got, want := m.LoadByte(addr), ref.load(addr); got != want {
				t.Fatalf("step %d: LoadByte(%#x) = %#x, want %#x", step, addr, got, want)
			}
		case 2, 3:
			var err error
			if op == 3 {
				var got uint16
				got, err = m.LoadHalf(addr)
				if err == nil && uint32(got) != ref.loadN(addr, 2) {
					t.Fatalf("step %d: LoadHalf(%#x) = %#x, want %#x", step, addr, got, ref.loadN(addr, 2))
				}
			} else if err = m.StoreHalf(addr, uint16(v)); err == nil {
				ref.storeN(addr, 2, v)
			}
			if (err != nil) != (addr&1 != 0) {
				t.Fatalf("step %d: half access at %#x: err = %v", step, addr, err)
			}
		case 4, 5:
			var err error
			if op == 5 {
				var got uint32
				got, err = m.LoadWord(addr)
				if err == nil && got != ref.loadN(addr, 4) {
					t.Fatalf("step %d: LoadWord(%#x) = %#x, want %#x", step, addr, got, ref.loadN(addr, 4))
				}
			} else if err = m.StoreWord(addr, v); err == nil {
				ref.storeN(addr, 4, v)
			}
			if (err != nil) != (addr&3 != 0) {
				t.Fatalf("step %d: word access at %#x: err = %v", step, addr, err)
			}
		}
	}
	want := ref.touched()
	if got := m.TouchedPages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TouchedPages: %d pages, reference %d", len(got), len(want))
	}
	if pages, bytes := m.Footprint(); pages != len(want) || bytes != len(want)*pageSize {
		t.Fatalf("Footprint = (%d, %d), reference %d pages", pages, bytes, len(want))
	}
	if !ref.pages[0xfffff000] {
		t.Fatal("the topmost page was never exercised")
	}
	for addr, b := range ref.bytes {
		if got := m.LoadByte(addr); got != b {
			t.Fatalf("final LoadByte(%#x) = %#x, want %#x", addr, got, b)
		}
	}
}

func TestTopmostPage(t *testing.T) {
	m := New()
	if err := m.StoreWord(0xfffffffc, 0xa1b2c3d4); err != nil {
		t.Fatal(err)
	}
	if w, err := m.LoadWord(0xfffffffc); err != nil || w != 0xa1b2c3d4 {
		t.Fatalf("LoadWord = %#x, %v", w, err)
	}
	if m.LoadByte(0xffffffff) != 0xa1 {
		t.Fatal("last byte of the address space lost")
	}
	if tp := m.TouchedPages(); len(tp) != 1 || tp[0] != 0xfffff000 {
		t.Fatalf("touched = %#x", tp)
	}
}

func TestSliceHelpersStraddlePages(t *testing.T) {
	m := New()
	ws := []uint32{1, 2, 3, 4}
	addr := uint32(0x7ffff000 - 8) // two words on each side of the edge
	if err := m.StoreWords(addr, ws); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadWords(addr, len(ws))
	if err != nil || !reflect.DeepEqual(got, ws) {
		t.Fatalf("LoadWords = %v, %v", got, err)
	}
	if tp := m.TouchedPages(); !reflect.DeepEqual(tp, []uint32{0x7fffe000, 0x7ffff000}) {
		t.Fatalf("touched = %#x", tp)
	}
}
