package mat

import (
	"math"
	"testing"
	"testing/quick"

	"extdict/internal/rng"
)

func TestMulVecKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{
		1, 2, 3,
		4, 5, 6,
	})
	y := a.MulVec([]float64{1, 1, 1}, nil)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulVecTKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{
		1, 2, 3,
		4, 5, 6,
	})
	y := a.MulVecT([]float64{1, 2}, nil)
	want := []float64{9, 12, 15}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", y, want)
		}
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	r := rng.New(4)
	a := randomDense(r, 17, 9)
	x := make([]float64, 17)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := a.MulVecT(x, nil)
	want := a.T().MulVec(x, nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// mul computes A·B into a freshly allocated matrix through MulTo.
func mul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	MulTo(c, a, b)
	return c
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	c := mul(a, b)
	want := NewDenseData(2, 2, []float64{19, 22, 43, 50})
	if !Equal(c, want, 1e-12) {
		t.Fatalf("MulTo = %v", c.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(5)
	a := randomDense(r, 6, 6)
	id := NewDense(6, 6)
	for i := 0; i < 6; i++ {
		id.Set(i, i, 1)
	}
	if !Equal(mul(a, id), a, 1e-12) || !Equal(mul(id, a), a, 1e-12) {
		t.Fatal("identity multiplication failed")
	}
}

func TestMulAssociativity(t *testing.T) {
	r := rng.New(6)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		m, k, n, p := 2+rr.Intn(6), 2+rr.Intn(6), 2+rr.Intn(6), 2+rr.Intn(6)
		a := randomDense(r, m, k)
		b := randomDense(r, k, n)
		c := randomDense(r, n, p)
		left := mul(mul(a, b), c)
		right := mul(a, mul(b, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulToRowsMatchMulVecT(t *testing.T) {
	// Row i of MulTo(P, D) is D.MulVecT(P.Row(i)) bit for bit: both add
	// four-row groups of D through the axpy4K expression, then the
	// remainder rows one at a time, so the panel coder's α⁰ is Encode's.
	// The shapes cover M mod 4 ∈ {0, 1, 2, 3}, odd and even L and panel
	// heights (the paired-row kernel and its odd last row), and widths
	// across the mulToTileJ column tiles.
	r := rng.New(14)
	for _, m := range []int{8, 9, 10, 11, 128} {
		for _, l := range []int{1, 6, 47, mulToTileJ, mulToTileJ + 3, 2*mulToTileJ + 2} {
			for _, rows := range []int{1, 2, 3, 5} {
				p, d := randomDense(r, rows, m), randomDense(r, m, l)
				dst := randomDense(r, rows, l) // MulTo must overwrite, not accumulate
				MulTo(dst, p, d)
				for i := 0; i < rows; i++ {
					want := d.MulVecT(p.Row(i), nil)
					for j, v := range dst.Row(i) {
						if math.Float64bits(v) != math.Float64bits(want[j]) {
							t.Fatalf("M=%d L=%d rows=%d: (%d,%d) = %v, MulVecT %v", m, l, rows, i, j, v, want[j])
						}
					}
				}
			}
		}
	}
}

func TestATAMatchesMul(t *testing.T) {
	r := rng.New(7)
	a := randomDense(r, 13, 7)
	g := ATA(a)
	want := mul(a.T(), a)
	if !Equal(g, want, 1e-10) {
		t.Fatal("ATA differs from explicit AᵀA")
	}
	// Symmetry.
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			if g.At(i, j) != g.At(j, i) {
				t.Fatal("ATA not symmetric")
			}
		}
	}
}

func TestParMulVecMatchesSerial(t *testing.T) {
	r := rng.New(9)
	a := randomDense(r, 300, 41)
	x := make([]float64, 41)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := a.ParMulVec(x, nil)
	want := a.MulVec(x, nil)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ParMulVec mismatch at %d", i)
		}
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatal("Dot wrong")
	}
	if Norm1(x) != 6 || NormInf(y) != 6 {
		t.Fatal("norms wrong")
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-14 {
		t.Fatal("Norm2 wrong")
	}
	z := CopyVec(y)
	Axpy(2, x, z)
	if z[0] != 6 || z[2] != 12 {
		t.Fatalf("Axpy = %v", z)
	}
	SubVec(z, z, y)
	if z[0] != 2 {
		t.Fatal("SubVec wrong")
	}
	AddVec(z, z, z)
	if z[0] != 4 {
		t.Fatal("AddVec wrong")
	}
	ScaleVec(0.5, z)
	if z[0] != 2 {
		t.Fatal("ScaleVec wrong")
	}
	Zero(z)
	if Norm1(z) != 0 {
		t.Fatal("Zero wrong")
	}
}

func BenchmarkMulVec1024(b *testing.B) {
	r := rng.New(1)
	a := randomDense(r, 1024, 1024)
	x := make([]float64, 1024)
	y := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

func BenchmarkATA256(b *testing.B) {
	r := rng.New(1)
	a := randomDense(r, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ATA(a)
	}
}
