package mat

import (
	"math"
	"testing"

	"extdict/internal/rng"
)

func randomDense(r *rng.RNG, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestNewDenseShape(t *testing.T) {
	m := NewDense(3, 5)
	if m.Rows != 3 || m.Cols != 5 || m.Stride != 5 || len(m.Data) != 15 {
		t.Fatalf("unexpected shape: %+v", m)
	}
}

func TestNewDensePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseDataLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewDense(4, 3)
	m.Set(2, 1, 7.5)
	//lint:ignore nofloateq Set/At must round-trip the stored bits unchanged
	if m.At(2, 1) != 7.5 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
	//lint:ignore nofloateq row-major layout check needs the exact stored value
	if m.Data[2*3+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestRowColAccess(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row(1) = %v", row)
	}
	col := m.Col(1, nil)
	if col[0] != 2 || col[1] != 5 {
		t.Fatalf("Col(1) = %v", col)
	}
	m.SetCol(0, []float64{10, 20})
	if m.At(0, 0) != 10 || m.At(1, 0) != 20 {
		t.Fatal("SetCol failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases parent storage")
	}
}

func TestColSlice(t *testing.T) {
	m := NewDenseData(2, 4, []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
	})
	s := m.ColSlice([]int{3, 0})
	want := NewDenseData(2, 2, []float64{4, 1, 8, 5})
	if !Equal(s, want, 0) {
		t.Fatalf("ColSlice = %v", s.Data)
	}
}

func TestColRangeView(t *testing.T) {
	m := NewDenseData(2, 4, []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
	})
	v := m.ColRange(1, 3)
	if v.Rows != 2 || v.Cols != 2 {
		t.Fatalf("view shape %dx%d", v.Rows, v.Cols)
	}
	if v.At(0, 0) != 2 || v.At(1, 1) != 7 {
		t.Fatal("view content wrong")
	}
	v.Set(0, 0, 42)
	if m.At(0, 1) != 42 {
		t.Fatal("view does not alias parent")
	}
}

func TestColRangeZeroRows(t *testing.T) {
	m := NewDense(0, 5)
	v := m.ColRange(1, 3)
	if v.Rows != 0 || v.Cols != 2 || len(v.Data) != 0 {
		t.Fatalf("view of a 0-row matrix is %dx%d with %d entries, want an empty 0x2",
			v.Rows, v.Cols, len(v.Data))
	}
	if y := v.MulVec([]float64{1, 2}, nil); len(y) != 0 {
		t.Fatalf("MulVec on the empty view returned %d entries", len(y))
	}
	for _, b := range [][2]int{{-1, 2}, {3, 2}, {0, 6}} {
		func() {
			defer func() {
				if r := recover(); r != "mat: ColRange out of bounds" {
					t.Fatalf("ColRange(%d, %d) on 0x5 panicked with %v", b[0], b[1], r)
				}
			}()
			m.ColRange(b[0], b[1])
		}()
	}
}

func TestTranspose(t *testing.T) {
	r := rng.New(1)
	m := randomDense(r, 5, 3)
	tt := m.T().T()
	if !Equal(m, tt, 0) {
		t.Fatal("double transpose not identity")
	}
	mt := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if mt.At(j, i) != m.At(i, j) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestFrobNorm(t *testing.T) {
	m := NewDenseData(2, 2, []float64{3, 0, 0, 4})
	if got := m.FrobNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobNorm = %v, want 5", got)
	}
	z := NewDense(3, 3)
	if z.FrobNorm() != 0 {
		t.Fatal("zero matrix norm not 0")
	}
}

func TestFrobNormExtremeValues(t *testing.T) {
	m := NewDenseData(1, 2, []float64{1e200, 1e200})
	got := m.FrobNorm()
	want := 1e200 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("FrobNorm overflowed: %v", got)
	}
}

func TestNormalizeColumns(t *testing.T) {
	r := rng.New(2)
	m := randomDense(r, 10, 6)
	m.SetCol(3, make([]float64, 10)) // zero column must survive
	norms := m.NormalizeColumns()
	for j := 0; j < m.Cols; j++ {
		n := Norm2(m.Col(j, nil))
		if j == 3 {
			if n != 0 || norms[3] != 0 {
				t.Fatal("zero column mishandled")
			}
			continue
		}
		if math.Abs(n-1) > 1e-12 {
			t.Fatalf("column %d norm %v after normalization", j, n)
		}
		if norms[j] <= 0 {
			t.Fatalf("returned norm %v not positive", norms[j])
		}
	}
}

func TestScaleAddSub(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{4, 3, 2, 1})
	a.Add(b)
	if a.At(0, 0) != 5 || a.At(1, 1) != 5 {
		t.Fatal("Add wrong")
	}
	a.Sub(b)
	if a.At(0, 1) != 2 {
		t.Fatal("Sub wrong")
	}
	a.Scale(2)
	if a.At(1, 0) != 6 {
		t.Fatal("Scale wrong")
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(NewDense(2, 2), NewDense(2, 3), 1) {
		t.Fatal("Equal ignored shape mismatch")
	}
}
