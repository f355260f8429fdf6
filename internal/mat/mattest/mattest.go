// Package mattest provides extended-precision reference kernels for the
// accuracy tests of the numeric packages, from any package's tests. Values
// are double-double numbers: an unevaluated sum Hi + Lo of two float64s
// with |Lo| ≤ ulp(Hi)/2, about 106 significant bits, built from the exact
// error-free transformations TwoSum and TwoProd (math.FMA). The references
// mirror the float64 kernels of internal/mat, internal/sparse and
// internal/exd on plain slices, so the package imports nothing from the
// module and every package's internal tests can use it.
//
// Each reference sum returns a Sum: the double-double value together with
// the absolute sum of its terms and the most roundings a float64 kernel
// puts on one term's path, which is what the kernel's a-priori
// forward-error bound is stated in (Higham, Accuracy and Stability of
// Numerical Algorithms, ch. 3): a float64 sum of n products, however
// associated, lies within γₙ·Σ|terms| of the exact sum, γₙ = nu/(1−nu),
// u = 2⁻⁵³.
//
// A double-double is exact to about 2⁻¹⁰⁶ relative for values between
// 2⁻⁹⁶⁹ and 2¹⁰²³; below that its low part is subnormal and it carries an
// absolute error of up to Eta per operation, the same order as a float64
// kernel's own underflow. Bounds therefore carry an absolute Eta term per
// operation.
package mattest

import "math"

// U is the unit roundoff of float64 arithmetic, 2⁻⁵³.
const U = 0x1p-53

// Eta is the smallest positive subnormal float64, 2⁻¹⁰⁷⁴: the absolute
// error of a result rounded into the subnormal range is at most Eta/2.
const Eta = 0x1p-1074

// Gamma returns γₙ = nu/(1−nu), the relative error bound of a float64
// computation with n roundings on every term's path.
func Gamma(n int) float64 {
	nu := float64(n) * U
	return nu / (1 - nu)
}

// DD is a double-double number, the unevaluated sum Hi + Lo.
type DD struct {
	Hi, Lo float64
}

// Float returns x rounded to the nearest float64.
func (x DD) Float() float64 { return x.Hi + x.Lo }

// TwoSum returns s = fl(a+b) and the exact error e, a + b = s + e (Knuth).
func TwoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}

// quickTwoSum is TwoSum for |a| ≥ |b| (Dekker).
func quickTwoSum(a, b float64) (s, e float64) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// TwoProd returns p = fl(a·b) and its error e = a·b − p, computed with one
// fused multiply-add; e is exact unless it falls below the normal range.
func TwoProd(a, b float64) (p, e float64) {
	p = a * b
	e = math.FMA(a, b, -p)
	return p, e
}

// FromProd returns the product a·b as a double-double.
func FromProd(a, b float64) DD {
	p, e := TwoProd(a, b)
	return DD{p, e}
}

// Add returns x + y.
func (x DD) Add(y DD) DD {
	s, e := TwoSum(x.Hi, y.Hi)
	t, f := TwoSum(x.Lo, y.Lo)
	e += t
	s, e = quickTwoSum(s, e)
	e += f
	s, e = quickTwoSum(s, e)
	return DD{s, e}
}

// AddFloat returns x + b.
func (x DD) AddFloat(b float64) DD {
	s, e := TwoSum(x.Hi, b)
	e += x.Lo
	s, e = quickTwoSum(s, e)
	return DD{s, e}
}

// Neg returns −x.
func (x DD) Neg() DD { return DD{-x.Hi, -x.Lo} }

// Sub returns x − y.
func (x DD) Sub(y DD) DD { return x.Add(y.Neg()) }

// Mul returns x·y.
func (x DD) Mul(y DD) DD {
	p, e := TwoProd(x.Hi, y.Hi)
	e += x.Hi*y.Lo + x.Lo*y.Hi
	p, e = quickTwoSum(p, e)
	return DD{p, e}
}

// MulFloat returns x·b.
func (x DD) MulFloat(b float64) DD {
	p, e := TwoProd(x.Hi, b)
	e += x.Lo * b
	p, e = quickTwoSum(p, e)
	return DD{p, e}
}

// Div returns x/y by long division with three float64 quotient digits.
func (x DD) Div(y DD) DD {
	q1 := x.Hi / y.Hi
	r := x.Sub(y.MulFloat(q1))
	q2 := r.Hi / y.Hi
	r = r.Sub(y.MulFloat(q2))
	q3 := r.Hi / y.Hi
	q1, q2 = quickTwoSum(q1, q2)
	return DD{q1, q2}.AddFloat(q3)
}

// Sqrt returns √x for x ≥ 0 by one Newton step from the float64 root.
func (x DD) Sqrt() DD {
	if x.Hi <= 0 {
		return DD{math.Sqrt(x.Hi), 0}
	}
	s := math.Sqrt(x.Hi)
	r := x.Sub(FromProd(s, s))
	s, e := quickTwoSum(s, r.Hi/(2*s))
	return DD{s, e}
}

// Ldexp returns x·2ᵏ, exact while both parts stay normal.
func (x DD) Ldexp(k int) DD {
	return DD{math.Ldexp(x.Hi, k), math.Ldexp(x.Lo, k)}
}

// Sum is a reference result: the double-double value of a sum, the sum of
// its terms' magnitudes, and the γ index of the float64 kernels it mirrors.
type Sum struct {
	// Val is the sum.
	Val DD
	// Abs is Σ|terms|.
	Abs float64
	// N is the most roundings on any term's path through the float64
	// kernel: the term count for a sum of products, whatever its
	// association, since a product is one rounding and each add one more.
	N int
}

// add folds the term t into s.
func (s *Sum) add(t DD) {
	s.Val = s.Val.Add(t)
	s.Abs += math.Abs(t.Float())
	s.N++
}

// Bound is the a-priori forward-error bound γ_N·Σ|terms| of the float64
// kernel, plus Eta per term for underflow in the kernel or the reference.
func (s Sum) Bound() float64 {
	return Gamma(s.N)*s.Abs*(1+4*U) + 2*float64(s.N+1)*Eta
}

// Err returns |got − s.Val| rounded to float64.
func (s Sum) Err(got float64) float64 {
	return math.Abs(DD{got, 0}.Sub(s.Val).Float())
}

// Dot returns the reference Σ xᵢyᵢ over len(x) terms.
func Dot(x, y []float64) Sum {
	var s Sum
	for i, xi := range x {
		s.add(FromProd(xi, y[i]))
	}
	return s
}

// Axpy returns y + α·x entry by entry, each entry exact to double-double
// precision.
func Axpy(alpha float64, x, y []float64) []DD {
	out := make([]DD, len(y))
	for i := range y {
		out[i] = FromProd(alpha, x[i]).AddFloat(y[i])
	}
	return out
}

// AxpyDot returns the reference zᵀ(y + α·x). A kernel that rounds α·xᵢ and
// yᵢ + α·xᵢ once each and then takes a float64 dot adds two roundings to
// every term's path, so N is len(y) + 2 and Abs is Σ|zᵢ|(|yᵢ| + |αxᵢ|),
// which bounds the updated entries' magnitudes.
func AxpyDot(alpha float64, x, y, z []float64) Sum {
	s := Sum{N: 2}
	for i, v := range Axpy(alpha, x, y) {
		s.Val = s.Val.Add(v.MulFloat(z[i]))
		s.Abs += math.Abs(z[i]) * (math.Abs(y[i]) + math.Abs(alpha*x[i]))
		s.N++
	}
	return s
}

// Norm returns the reference ‖v‖. It scales v by the power of two that
// brings its largest magnitude into [1/2, 1) before squaring, so no square
// overflows and no square that matters underflows.
func Norm(v []DD) DD {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x.Hi))
	}
	if m == 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		return DD{m, 0}
	}
	_, e := math.Frexp(m)
	var ss DD
	for _, x := range v {
		w := x.Ldexp(-e)
		ss = ss.Add(w.Mul(w))
	}
	return ss.Sqrt().Ldexp(e)
}

// Norm2 returns the reference ‖x‖.
func Norm2(x []float64) DD {
	v := make([]DD, len(x))
	for i, xi := range x {
		v[i] = DD{xi, 0}
	}
	return Norm(v)
}

// AxpyNorm2 returns the reference ‖y + α·x‖.
func AxpyNorm2(alpha float64, x, y []float64) DD {
	return Norm(Axpy(alpha, x, y))
}

// MulVec returns the reference y = A·x for a row-major rows×cols matrix
// with the given stride, one Sum per row.
func MulVec(rows, cols, stride int, data, x []float64) []Sum {
	out := make([]Sum, rows)
	for i := range out {
		out[i] = Dot(data[i*stride:i*stride+cols], x)
	}
	return out
}

// MulVecT returns the reference y = Aᵀ·x for a row-major rows×cols matrix
// with the given stride, one Sum per column.
func MulVecT(rows, cols, stride int, data, x []float64) []Sum {
	out := make([]Sum, cols)
	for i := 0; i < rows; i++ {
		row := data[i*stride : i*stride+cols]
		for j, a := range row {
			out[j].add(FromProd(a, x[i]))
		}
	}
	return out
}

// CSCMulVec returns the reference y = C·x for a CSC matrix given by its
// column pointers, row indices and values, one Sum per row.
func CSCMulVec(rows int, colPtr, rowIdx []int, val, x []float64) []Sum {
	out := make([]Sum, rows)
	for j, xj := range x {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			out[rowIdx[p]].add(FromProd(val[p], xj))
		}
	}
	return out
}

// CSCMulVecT returns the reference y = Cᵀ·x for a CSC matrix, one Sum per
// column.
func CSCMulVecT(cols int, colPtr, rowIdx []int, val, x []float64) []Sum {
	out := make([]Sum, cols)
	for j := range out {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			out[j].add(FromProd(val[p], x[rowIdx[p]]))
		}
	}
	return out
}

// Vals returns the Sums' values rounded to float64.
func Vals(s []Sum) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v.Val.Float()
	}
	return out
}

// RelErrorResult is the reference ‖A − D·C‖_F / ‖A‖_F with the a-priori
// bound of a float64 evaluation that rebuilds each column of D·C as a sum
// in C's storage order and then adds the squared deviations and squares.
type RelErrorResult struct {
	Val   DD
	Bound float64
}

// RelError returns the reference relative error of the transform (D, C)
// against A: A is m×n and D m×l, both row-major with strides equal to
// their column counts, and C is l×n in CSC form.
//
// The bound follows the float64 evaluation term by term. Entry (i, j) of
// D·C, a sum of k = nnz(C[:, j]) products, is off by at most
// Eᵢⱼ = γₖ·Rᵢⱼ with Rᵢⱼ = Σₚ|Cₚⱼ·Dᵢₚ|. The deviation dᵢⱼ = aᵢⱼ − (DC)ᵢⱼ is
// then off by at most Eᵢⱼ before its own rounding, so with mn terms the
// numerator Σd² is off by at most
// ΔN = γ_{mn+3}·Σ(|dᵢⱼ| + Eᵢⱼ)² + Σ Eᵢⱼ(2|dᵢⱼ| + Eᵢⱼ), and the denominator
// Σa² by ΔD = γ_{mn+1}·Σa². The quotient q = N/D is off by at most
// ΔQ = (ΔN + q·ΔD)/(D − ΔD) + u·(q + ΔQ), and √q by ΔQ/√q + u·√q.
func RelError(m, n, l int, a, d []float64, colPtr, rowIdx []int, val []float64) RelErrorResult {
	var num, den DD
	var bnum, absNum, absDen float64
	for j := 0; j < n; j++ {
		k := colPtr[j+1] - colPtr[j]
		for i := 0; i < m; i++ {
			var rec DD
			var r float64
			for p := colPtr[j]; p < colPtr[j+1]; p++ {
				rec = rec.Add(FromProd(val[p], d[i*l+rowIdx[p]]))
				r += math.Abs(val[p] * d[i*l+rowIdx[p]])
			}
			aij := a[i*n+j]
			dev := DD{aij, 0}.Sub(rec)
			num = num.Add(dev.Mul(dev))
			den = den.Add(FromProd(aij, aij))
			e := Gamma(k)*r + float64(k+1)*Eta
			ad := math.Abs(dev.Float())
			absNum += (ad + e) * (ad + e)
			bnum += e * (2*ad + e)
			absDen += aij * aij
		}
	}
	res := RelErrorResult{}
	if den.Hi == 0 {
		return res
	}
	q := num.Div(den)
	res.Val = q.Sqrt()
	mn := m * n
	dn := Gamma(mn+3)*absNum + bnum + 2*float64(mn+1)*Eta
	dd := Gamma(mn+1)*absDen + 2*float64(mn+1)*Eta
	qf := q.Float()
	dq := (dn + qf*dd) / (den.Float() - dd)
	dq += 2 * U * (qf + dq)
	rel := res.Val.Float()
	if rel > 0 {
		res.Bound = (dq/rel + U*rel) * (1 + 4*U)
	} else {
		res.Bound = math.Sqrt(dq)
	}
	return res
}

// LassoViolation returns the largest violations, relative to λ, of the ℓ₁
// optimality conditions of min xᵀGx − 2bᵀx + λ‖x‖₁ at x, given the
// reference G·x: the gradient g = 2(G·x − b) of the smooth part must
// satisfy |gᵢ| ≤ λ where xᵢ = 0 and gᵢ = −λ·sign(xᵢ) where xᵢ ≠ 0. zero
// is the largest |gᵢ|/λ − 1 over the zero entries (−Inf when there are
// none), active the largest |gᵢ + λ·sign(xᵢ)|/λ over the others.
func LassoViolation(gx []Sum, b, x []float64, lambda float64) (zero, active float64) {
	zero = math.Inf(-1)
	for i, s := range gx {
		g := 2 * s.Val.Sub(DD{Hi: b[i]}).Float()
		if x[i] == 0 {
			zero = math.Max(zero, math.Abs(g)/lambda-1)
		} else {
			active = math.Max(active, math.Abs(g+math.Copysign(lambda, x[i]))/lambda)
		}
	}
	return zero, active
}
