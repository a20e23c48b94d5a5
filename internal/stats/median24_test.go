package stats

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// TestMedianNet24 pins the comparator network to the sort-based median on
// adversarial 24-element inputs: random values, heavy ties, signed zeros,
// sorted and reverse-sorted runs, and random-walk shapes like the EMD
// cumulative differences that feed it in production.
func TestMedianNet24(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(24))
	ref := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return (s[11] + s[12]) / 2
	}
	check := func(xs []float64) {
		t.Helper()
		want := ref(xs)
		got := medianNet24(append([]float64(nil), xs...))
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("medianNet24(%v) = %v, want %v", xs, got, want)
		}
	}
	xs := make([]float64, 24)
	for trial := 0; trial < 20000; trial++ {
		switch trial % 5 {
		case 0: // uniform random
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
		case 1: // heavy ties from a tiny alphabet, including -0
			vals := []float64{-1, math.Copysign(0, -1), 0, 0.5, 2}
			for i := range xs {
				xs[i] = vals[rng.Intn(len(vals))]
			}
		case 2: // sorted ascending with duplicates
			v := rng.Float64()
			for i := range xs {
				xs[i] = v
				if rng.Intn(3) > 0 {
					v += rng.Float64()
				}
			}
		case 3: // reverse sorted
			v := rng.Float64()
			for i := range xs {
				xs[i] = v
				v -= rng.Float64()
			}
		case 4: // random walk, the production shape
			v := 0.0
			for i := range xs {
				v += rng.NormFloat64() * 0.1
				xs[i] = v
			}
		}
		check(xs)
	}
}

// netWire parses a wire variable name of medianNet24 ("x7" -> 7).
func netWire(e ast.Expr) (int, error) {
	id, ok := e.(*ast.Ident)
	if !ok || len(id.Name) < 2 || id.Name[0] != 'x' {
		return 0, fmt.Errorf("not a wire: %#v", e)
	}
	w, err := strconv.Atoi(id.Name[1:])
	if err != nil || w < 0 || w >= 24 {
		return 0, fmt.Errorf("not a wire: %s", id.Name)
	}
	return w, nil
}

// shippedNet24 reads medianNet24 from median24.go and returns its
// compare-exchanges in order. It also checks the parts around them: wire
// w starts as orderKey(v[w]), and the result decodes wires 11 and 12.
func shippedNet24(t *testing.T) [][2]int {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "median24.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var body *ast.BlockStmt
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "medianNet24" {
			body = fd.Body
		}
	}
	if body == nil {
		t.Fatal("medianNet24 not found in median24.go")
	}
	var pairs [][2]int
	loaded := map[int]bool{}
	for _, st := range body.List {
		switch st := st.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				for i, lhs := range st.Lhs {
					w, err := netWire(lhs)
					if err != nil {
						continue // the input array, not a wire
					}
					call, ok := st.Rhs[i].(*ast.CallExpr)
					if !ok || len(call.Args) != 1 || fmt.Sprint(call.Fun) != "orderKey" {
						t.Fatalf("wire %d is not loaded as an orderKey", w)
					}
					idx, ok := call.Args[0].(*ast.IndexExpr)
					if !ok {
						t.Fatalf("wire %d is not loaded from an element", w)
					}
					if lit, ok := idx.Index.(*ast.BasicLit); !ok || lit.Value != strconv.Itoa(w) {
						t.Fatalf("wire %d is not loaded from element %d", w, w)
					}
					loaded[w] = true
				}
				continue
			}
			if len(st.Lhs) != 2 || len(st.Rhs) != 2 {
				t.Fatalf("unexpected assignment at offset %d", st.Pos())
			}
			a, errA := netWire(st.Lhs[0])
			b, errB := netWire(st.Lhs[1])
			if errA != nil || errB != nil {
				t.Fatalf("comparator outputs: %v %v", errA, errB)
			}
			for i, fn := range []string{"min", "max"} {
				call, ok := st.Rhs[i].(*ast.CallExpr)
				if !ok || fmt.Sprint(call.Fun) != fn || len(call.Args) != 2 {
					t.Fatalf("comparator (%d, %d): output %d is not %s(x%d, x%d)", a, b, i, fn, a, b)
				}
				ca, errA := netWire(call.Args[0])
				cb, errB := netWire(call.Args[1])
				if errA != nil || errB != nil || ca != a || cb != b {
					t.Fatalf("comparator (%d, %d): output %d is not %s(x%d, x%d)", a, b, i, fn, a, b)
				}
			}
			pairs = append(pairs, [2]int{a, b})
		case *ast.ReturnStmt:
			var wires []int
			ast.Inspect(st, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					if w, err := netWire(e); err == nil {
						wires = append(wires, w)
					}
				}
				return true
			})
			if len(wires) != 2 || wires[0] != 11 || wires[1] != 12 {
				t.Fatalf("medianNet24 returns wires %v, want [11 12]", wires)
			}
		}
	}
	if len(loaded) != 24 {
		t.Fatalf("%d wires loaded, want 24", len(loaded))
	}
	return pairs
}

// TestMedianNet24ZeroOne proves the shipped network correct by the 0-1
// principle: a comparator network leaves the k-th smallest value on a wire
// for every input iff it does so for every input of 0s and 1s. It runs the
// comparators read from median24.go on all 2^24 boolean inputs, bit-sliced
// 64 to a word (min is AND, max is OR), and checks that wire 11 holds a 1
// iff at least 13 inputs are 1, and wire 12 iff at least 12 are.
func TestMedianNet24ZeroOne(t *testing.T) {
	t.Parallel()
	pairs := shippedNet24(t)
	if len(pairs) != 108 {
		t.Fatalf("medianNet24 has %d compare-exchanges, want 108", len(pairs))
	}
	// Lane l of a word is the input whose low 6 bits are l; the word index
	// supplies bits 6..23. atLeast[c] marks the lanes with >= c low ones.
	var low [6]uint64
	var atLeast [8]uint64
	for l := 0; l < 64; l++ {
		for b := range low {
			if l>>b&1 == 1 {
				low[b] |= 1 << l
			}
		}
		for c := 0; c <= bits.OnesCount(uint(l)); c++ {
			atLeast[c] |= 1 << l
		}
	}
	lanesWith := func(c int) uint64 { // lanes with >= c low ones
		switch {
		case c <= 0:
			return ^uint64(0)
		case c > 6:
			return 0
		}
		return atLeast[c]
	}
	var w [24]uint64
	for hi := 0; hi < 1<<18; hi++ {
		copy(w[:6], low[:])
		for b := 6; b < 24; b++ {
			w[b] = -uint64(hi >> (b - 6) & 1)
		}
		for _, p := range pairs {
			w[p[0]], w[p[1]] = w[p[0]]&w[p[1]], w[p[0]]|w[p[1]]
		}
		h := bits.OnesCount(uint(hi))
		if w[11] != lanesWith(13-h) || w[12] != lanesWith(12-h) {
			t.Fatalf("inputs %#x..%#x: wires 11, 12 = %#x, %#x; want %#x, %#x",
				hi<<6, hi<<6|63, w[11], w[12], lanesWith(13-h), lanesWith(12-h))
		}
	}
}

// TestOrderKey checks the map the network compares by: it round-trips every
// non-NaN float bit for bit, it is strictly monotone, it puts -0 below +0,
// and integer min/max on keys decode to exactly Go's float min/max.
func TestOrderKey(t *testing.T) {
	t.Parallel()
	negZero := math.Copysign(0, -1)
	special := []float64{
		0, negZero, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		3 * math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff), // largest subnormal
		0x1p-1022, -0x1p-1022, // smallest normal
		math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.5, -0.5, 1e-300, -1e-300,
	}
	rng := rand.New(rand.NewSource(7))
	vals := append([]float64(nil), special...)
	for len(vals) < 4000 {
		var v float64
		if rng.Intn(2) == 0 {
			v = math.Float64frombits(rng.Uint64()) // any exponent
		} else {
			v = rng.NormFloat64()
		}
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	for _, a := range vals {
		if got := keyFloat(orderKey(a)); math.Float64bits(got) != math.Float64bits(a) {
			t.Fatalf("keyFloat(orderKey(%v)) = %v (bits %#x), want bits %#x", a, got, math.Float64bits(got), math.Float64bits(a))
		}
	}
	if orderKey(negZero) >= orderKey(0) {
		t.Fatalf("orderKey(-0) = %d, orderKey(+0) = %d; want -0 below +0", orderKey(negZero), orderKey(0))
	}
	check := func(a, b float64) {
		ka, kb := orderKey(a), orderKey(b)
		if a < b && ka >= kb {
			t.Fatalf("%v < %v but orderKey %d >= %d", a, b, ka, kb)
		}
		if (ka == kb) != (math.Float64bits(a) == math.Float64bits(b)) {
			t.Fatalf("orderKey(%v) = %d, orderKey(%v) = %d: keys and bits disagree on equality", a, ka, b, kb)
		}
		if lo := keyFloat(min(ka, kb)); math.Float64bits(lo) != math.Float64bits(min(a, b)) {
			t.Fatalf("key min(%v, %v) = %v, float min = %v", a, b, lo, min(a, b))
		}
		if hi := keyFloat(max(ka, kb)); math.Float64bits(hi) != math.Float64bits(max(a, b)) {
			t.Fatalf("key max(%v, %v) = %v, float max = %v", a, b, hi, max(a, b))
		}
	}
	// Every value against every special value, both ways round, and
	// against its next 32 neighbours in the random list.
	for i, a := range vals {
		for _, b := range special {
			check(a, b)
			check(b, a)
		}
		for _, b := range vals[i+1 : min(i+33, len(vals))] {
			check(a, b)
			check(b, a)
		}
	}
}

// BenchmarkMedianNet24 feeds the network the inputs the EMD kernel gives
// it: 256 random-walk sequences shaped like cumulative differences between
// two hourly profiles.
func BenchmarkMedianNet24(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	walks := make([][]float64, 256)
	for w := range walks {
		xs := make([]float64, 24)
		v := 0.0
		for i := range xs {
			v += rng.NormFloat64() * 0.02
			xs[i] = v
		}
		walks[w] = xs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = medianNet24(walks[i%len(walks)])
	}
}
