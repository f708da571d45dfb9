package replay

import (
	"math/rand"
	"reflect"
	"testing"

	"imtrans/internal/asm"
	"imtrans/internal/cpu"
	"imtrans/internal/mem"
	"imtrans/internal/workloads"
)

// refBuilder is the reference trace builder: one Add per fetch, and a
// tandem-repeat fold that scans every window width on every push. The
// production Builder must produce the identical trace.
type refBuilder struct {
	first    int32
	n        uint64
	lastIdx  int32
	curDelta int32
	curCount int64
	ops      []Op
}

func (b *refBuilder) Add(idx int) {
	i := int32(idx)
	b.n++
	if b.n == 1 {
		b.first, b.lastIdx = i, i
		return
	}
	delta := i - b.lastIdx
	b.lastIdx = i
	if b.curCount > 0 && delta == b.curDelta {
		b.curCount++
		return
	}
	b.flushRun()
	b.curDelta, b.curCount = delta, 1
}

func (b *refBuilder) flushRun() {
	if b.curCount == 0 {
		return
	}
	b.ops = append(b.ops, Op{Delta: b.curDelta, Count: b.curCount})
	for b.collapseTail() {
	}
	b.curCount = 0
}

func (b *refBuilder) collapseTail() bool {
	n := len(b.ops)
	for w := 1; w <= maxTandemWindow && w < n; w++ {
		g := &b.ops[n-w-1]
		if g.Repeat == 0 || len(g.Body) != w {
			continue
		}
		if !opsEqual(g.Body, b.ops[n-w:]) {
			continue
		}
		g.Repeat++
		b.ops = b.ops[:n-w]
		return true
	}
	for w := 1; w <= maxTandemWindow && 2*w <= n; w++ {
		if !leafEqual(&b.ops[n-1], &b.ops[n-1-w]) {
			continue
		}
		if !opsEqual(b.ops[n-2*w:n-w], b.ops[n-w:]) {
			continue
		}
		body := make([]Op, w)
		copy(body, b.ops[n-w:])
		b.ops = append(b.ops[:n-2*w], Op{Repeat: 2, Body: body})
		return true
	}
	return false
}

func (b *refBuilder) Trace() *Trace {
	b.flushRun()
	return &Trace{First: b.first, N: b.n, Ops: b.ops}
}

func refTrace(idxs []int) *Trace {
	var b refBuilder
	for _, i := range idxs {
		b.Add(i)
	}
	return b.Trace()
}

// rangeTrace feeds idxs to the production builder as sequential ranges,
// the way the CPU's fetch sink does: maximal ones, except that a range is
// cut short before position j wherever split(j) is true, as a taken
// branch to the next instruction cuts it.
func rangeTrace(idxs []int, split func(j int) bool) *Trace {
	b := NewBuilder()
	for i := 0; i < len(idxs); {
		j := i + 1
		for j < len(idxs) && idxs[j] == idxs[j-1]+1 && !split(j) {
			j++
		}
		b.AddRange(idxs[i], j-i)
		i = j
	}
	return b.Trace()
}

// randomStream draws a loop-nest-shaped index stream: straight runs,
// delta-0 self-loops, backward and forward jumps, loops with fixed and
// varying trip counts, and bodies long enough to span more tokens than
// the fold window.
func randomStream(rng *rand.Rand, budget int) []int {
	var out []int
	cur := rng.Intn(64)
	emit := func(i int) {
		if i < 0 {
			i = 0
		}
		out = append(out, i)
		cur = i
	}
	var body func(depth int)
	body = func(depth int) {
		for s := rng.Intn(4) + 1; s > 0 && len(out) < budget; s-- {
			switch rng.Intn(7) {
			case 0: // straight line, now and then a long one
				k := rng.Intn(12) + 1
				if rng.Intn(8) == 0 {
					k = rng.Intn(300) + 1
				}
				for ; k > 0; k-- {
					emit(cur + 1)
				}
			case 1: // self-loop: delta 0
				for k := rng.Intn(5) + 1; k > 0; k-- {
					emit(cur)
				}
			case 2: // jump anywhere, backwards included
				emit(cur + rng.Intn(41) - 20)
			case 3, 4: // a loop nest
				if depth > 3 {
					emit(cur + 1)
					continue
				}
				head := cur
				trips := rng.Intn(6) + 1
				varying := rng.Intn(3) == 0
				for it := 0; it < trips && len(out) < budget; it++ {
					emit(head)
					if varying && rng.Intn(2) == 0 {
						emit(cur + 1)
					}
					body(depth + 1)
				}
			case 5: // a body of many tokens repeated verbatim
				var tokens []int
				for k := rng.Intn(40) + 20; k > 0; k-- {
					tokens = append(tokens, rng.Intn(9)-4)
				}
				for it := rng.Intn(4) + 1; it > 0; it-- {
					for _, d := range tokens {
						emit(cur + d)
					}
				}
			default: // a counted loop with one taken branch per trip
				head, n := cur, rng.Intn(8)+1
				for it := rng.Intn(30) + 1; it > 0; it-- {
					emit(head)
					for k := 0; k < n; k++ {
						emit(cur + 1)
					}
				}
			}
		}
	}
	for len(out) < budget {
		body(0)
	}
	return out
}

func checkBuilders(t *testing.T, name string, idxs []int, split func(j int) bool) {
	t.Helper()
	want := refTrace(idxs)
	b := NewBuilder()
	for _, i := range idxs {
		b.Add(i)
	}
	if got := b.Trace(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Add trace differs from the reference\n got: %+v\nwant: %+v", name, got, want)
	}
	never := func(int) bool { return false }
	if got := rangeTrace(idxs, never); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: maximal AddRange trace differs from the reference\n got: %+v\nwant: %+v", name, got, want)
	}
	if got := rangeTrace(idxs, split); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: split AddRange trace differs from the reference\n got: %+v\nwant: %+v", name, got, want)
	}
}

// kernelTestParams are the reduced scales the facade's tests and
// `reproduce -small` use for the nine kernels.
var kernelTestParams = map[string]workloads.Params{
	"mmul": {N: 24}, "sor": {N: 32, Iters: 2}, "ej": {N: 24, Iters: 4},
	"fft": {N: 64}, "tri": {N: 32, Iters: 10}, "lu": {N: 24},
	"crc32": {N: 4096, Iters: 2}, "iir": {N: 2048, Iters: 3}, "conv2d": {N: 24, Iters: 2},
}

func TestBuilderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	split := func(int) bool { return rng.Intn(8) == 0 }
	for _, idxs := range traceCases() {
		checkBuilders(t, "case", idxs, split)
	}
	checkBuilders(t, "empty", nil, split)
	for i := 0; i < 300; i++ {
		checkBuilders(t, "random", randomStream(rng, 50+rng.Intn(3000)), split)
	}

	// The nine kernels, with the production builder fed by the CPU's
	// range sink and the reference by a per-fetch hook on the same run.
	kernels := append(workloads.All(), workloads.Extras()...)
	if len(kernels) != 9 {
		t.Fatalf("%d kernels, want 9", len(kernels))
	}
	for _, w := range kernels {
		p, ok := kernelTestParams[w.Name]
		if !ok {
			t.Fatalf("no test scale for %s", w.Name)
		}
		p = w.Fill(p)
		obj, err := asm.Assemble(w.Source(p))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		m := mem.New()
		for i, by := range obj.Data {
			m.StoreByte(obj.DataBase+uint32(i), by)
		}
		if err := w.Setup(m, p); err != nil {
			t.Fatalf("%s: setup: %v", w.Name, err)
		}
		c, err := cpu.New(cpu.Program{Base: obj.TextBase, Words: obj.TextWords}, m)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var ref refBuilder
		b := NewBuilder()
		c.OnFetch = func(pc, word uint32) { ref.Add(int(pc-obj.TextBase) / 4) }
		c.Fetches = b
		if err := c.Run(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got, want := b.Trace(), ref.Trace()
		if got.N != c.InstCount {
			t.Fatalf("%s: trace holds %d fetches, run made %d", w.Name, got.N, c.InstCount)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: range-fed trace differs from the reference (%d vs %d ops)",
				w.Name, got.NumOps(), want.NumOps())
		}
	}
}

// FuzzBuilder holds the production builder, fed per index and per range,
// to the reference on arbitrary index streams. Each input byte is a
// signed step from the previous index; steps of +1 dominate real streams,
// so the seeds are built from them. The split range feed cuts a range
// before index j wherever input byte j has its top bit set.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 0xfd, 1, 1, 1, 0xfd, 1, 1, 1, 0xfd})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff})
	f.Add([]byte{1, 1, 0xfe, 1, 1, 0xfe, 5, 1, 1, 0xfe, 1, 1, 0xfe, 5, 0xf6})
	f.Fuzz(func(t *testing.T, steps []byte) {
		idxs := make([]int, 0, len(steps)+1)
		cur := 1000
		idxs = append(idxs, cur)
		for _, s := range steps {
			cur += int(int8(s))
			idxs = append(idxs, cur)
		}
		split := func(j int) bool { return j < len(steps) && steps[j]&0x80 != 0 }
		checkBuilders(t, "fuzz", idxs, split)
	})
}
