package mattest

import (
	"math"
	"math/big"
	"testing"

	"extdict/internal/rng"
)

// exact returns x as a big.Float with room for any double-double result.
func exact(x float64) *big.Float { return new(big.Float).SetPrec(2200).SetFloat64(x) }

// exactDD returns the exact value Hi + Lo of x.
func exactDD(x DD) *big.Float { return exact(x.Hi).Add(exact(x.Hi), exact(x.Lo)) }

// relErr returns |got − want|/|want| (|got − want| when want is 0).
func relErr(got DD, want *big.Float) float64 {
	d := exactDD(got)
	d.Sub(d, want)
	if want.Sign() != 0 {
		d.Quo(d, want)
	}
	f, _ := d.Abs(d).Float64()
	return f
}

// wideDraw returns a normal draw scaled by 2^k, k uniform in [−300, 300].
func wideDraw(r *rng.RNG) float64 { return math.Ldexp(r.NormFloat64(), r.Intn(601)-300) }

func TestErrorFreeTransformsAreExact(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		a, b := wideDraw(r), wideDraw(r)
		if i%2 == 0 {
			b = math.Ldexp(r.NormFloat64(), r.Intn(121)-60) * a
		}
		s, e := TwoSum(a, b)
		want := exact(a)
		want.Add(want, exact(b))
		if got := exact(s); got.Add(got, exact(e)).Cmp(want) != 0 {
			t.Fatalf("TwoSum(%v, %v) = %v + %v is not exact", a, b, s, e)
		}
		p, f := TwoProd(a, b)
		want = exact(a)
		want.Mul(want, exact(b))
		if got := exact(p); got.Add(got, exact(f)).Cmp(want) != 0 {
			t.Fatalf("TwoProd(%v, %v) = %v + %v is not exact", a, b, p, f)
		}
	}
}

func TestDoubleDoubleArithmetic(t *testing.T) {
	// Each operation is accurate to a few units of 2⁻¹⁰⁶ relative while
	// its operands and result stay far from under- and overflow.
	const tol = 0x1p-100
	r := rng.New(2)
	dd := func() DD {
		s, e := TwoSum(math.Ldexp(r.NormFloat64(), r.Intn(201)-100), math.Ldexp(r.NormFloat64(), r.Intn(201)-160))
		return DD{s, e}
	}
	for i := 0; i < 20000; i++ {
		x, y := dd(), dd()
		ex, ey := exactDD(x), exactDD(y)
		for _, c := range []struct {
			op   string
			got  DD
			want *big.Float
		}{
			{"Add", x.Add(y), new(big.Float).SetPrec(2200).Add(ex, ey)},
			{"Sub", x.Sub(y), new(big.Float).SetPrec(2200).Sub(ex, ey)},
			{"Mul", x.Mul(y), new(big.Float).SetPrec(2200).Mul(ex, ey)},
			{"MulFloat", x.MulFloat(y.Hi), new(big.Float).SetPrec(2200).Mul(ex, exact(y.Hi))},
			{"Div", x.Div(y), new(big.Float).SetPrec(2200).Quo(ex, ey)},
		} {
			if e := relErr(c.got, c.want); e > tol {
				if c.op == "Add" || c.op == "Sub" {
					// Cancellation: the bound is relative to the operands.
					if a, _ := new(big.Float).Abs(ex).Float64(); e*mustFloat(c.want) <= tol*a {
						continue
					}
				}
				t.Fatalf("%s(%v, %v): relative error %g", c.op, x, y, e)
			}
		}
		ax := x
		if ax.Hi < 0 {
			ax = ax.Neg()
		}
		want := new(big.Float).SetPrec(2200).Sqrt(exactDD(ax))
		if e := relErr(ax.Sqrt(), want); e > tol {
			t.Fatalf("Sqrt(%v): relative error %g", ax, e)
		}
	}
}

func mustFloat(x *big.Float) float64 {
	f, _ := new(big.Float).Abs(x).Float64()
	return f
}

func TestReferencesMatchBigFloat(t *testing.T) {
	// The reference dot and norm agree with an exact big.Float evaluation
	// to far below the float64 kernels' bounds, on inputs whose dots cancel
	// to a small remainder.
	r := rng.New(3)
	for _, n := range []int{1, 2, 5, 64, 1000} {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Ldexp(r.NormFloat64(), r.Intn(81)-40)
			y[i] = math.Ldexp(r.NormFloat64(), r.Intn(81)-40)
		}
		for i := 0; i+1 < n; i += 2 {
			x[i+1], y[i+1] = x[i]*(1+math.Ldexp(r.NormFloat64(), -30)), -y[i]
		}
		dot := exact(0)
		ss := exact(0)
		for i := range x {
			p := exact(x[i])
			dot.Add(dot, p.Mul(p, exact(y[i])))
			q := exact(x[i])
			ss.Add(ss, q.Mul(q, exact(x[i])))
		}
		ref := Dot(x, y)
		d := exactDD(ref.Val)
		d.Sub(d, dot)
		if e := mustFloat(d); e > 0x1p-100*ref.Abs {
			t.Fatalf("n=%d: Dot off by %g, Σ|terms| = %g", n, e, ref.Abs)
		}
		if e := relErr(Norm2(x), new(big.Float).SetPrec(2200).Sqrt(ss)); e > 0x1p-100 {
			t.Fatalf("n=%d: Norm2 relative error %g", n, e)
		}
	}
}

func TestNormIsSafelyScaled(t *testing.T) {
	// Squares of these entries overflow or underflow in float64 and in a
	// double-double alike; the reference's power-of-two scaling keeps them.
	for _, c := range []struct {
		x    []float64
		want float64
	}{
		{[]float64{3e300, 4e300}, 5e300},
		{[]float64{3e-300, -4e-300}, 5e-300},
		{[]float64{3 * Eta, 4 * Eta}, 5 * Eta},
		{[]float64{1e200, 1e-200}, 1e200},
		{[]float64{0, math.Copysign(0, -1)}, 0},
		{nil, 0},
	} {
		if got := Norm2(c.x).Float(); math.Abs(got-c.want) > 2*U*c.want {
			t.Fatalf("Norm2(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}
