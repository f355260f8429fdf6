package mat

// This file holds the register-level kernel primitives behind the public
// level-1/2/3 operations. The machine model they target is a memory-
// bandwidth-bound core: a single scalar accumulator chains every
// floating-point add through one dependency, and a single row stream leaves
// load bandwidth on the table. The primitives therefore (a) split
// accumulation across independent registers so adds overlap, and (b)
// interleave several contiguous row streams against one shared vector so the
// core issues multiple concurrent cache-line fetches.
//
// Reassociating a sum changes only last-ulp rounding; element-wise updates
// (axpyK) are bit-identical to the scalar loop. All kernels assume the
// non-len-bearing slices are at least as long as the len-bearing one; callers
// validate shapes.

// dotK returns <x, y> with 8-wide unrolling over 4 independent accumulators.
// Iterates len(x) elements; len(y) must be >= len(x).
func dotK(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xv := x[i : i+8 : i+8]
		yv := y[i : i+8 : i+8]
		s0 += xv[0]*yv[0] + xv[4]*yv[4]
		s1 += xv[1]*yv[1] + xv[5]*yv[5]
		s2 += xv[2]*yv[2] + xv[6]*yv[6]
		s3 += xv[3]*yv[3] + xv[7]*yv[7]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpyDotK computes y += a*x and returns <z, y> of the updated y in one pass
// over the three vectors. Each y entry is updated as axpyK updates it and
// the dot is accumulated in dotK's order, so the result is bit-identical to
// axpyK(a, x, y) followed by dotK(z, y). Iterates len(y); x and z must be
// >= len(y).
func axpyDotK(a float64, x, y, z []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= len(y); i += 8 {
		xv := x[i : i+8 : i+8]
		yv := y[i : i+8 : i+8]
		zv := z[i : i+8 : i+8]
		y0, y1, y2, y3 := yv[0]+a*xv[0], yv[1]+a*xv[1], yv[2]+a*xv[2], yv[3]+a*xv[3]
		y4, y5, y6, y7 := yv[4]+a*xv[4], yv[5]+a*xv[5], yv[6]+a*xv[6], yv[7]+a*xv[7]
		yv[0], yv[1], yv[2], yv[3], yv[4], yv[5], yv[6], yv[7] = y0, y1, y2, y3, y4, y5, y6, y7
		s0 += zv[0]*y0 + zv[4]*y4
		s1 += zv[1]*y1 + zv[5]*y5
		s2 += zv[2]*y2 + zv[6]*y6
		s3 += zv[3]*y3 + zv[7]*y7
	}
	for ; i < len(y); i++ {
		yi := y[i] + a*x[i]
		y[i] = yi
		s0 += z[i] * yi
	}
	return (s0 + s1) + (s2 + s3)
}

// axpySumSqK computes y += a*x and returns Σ y[i]² of the updated y in one
// pass. Each y entry is updated as axpyK updates it and the squares are
// accumulated in dotK's order, so the result is bit-identical to
// axpyK(a, x, y) followed by dotK(y, y); unlike axpyDotK(a, x, y, y) it
// does not load each updated entry back. Iterates len(y); x must be
// >= len(y).
func axpySumSqK(a float64, x, y []float64) float64 {
	x = x[:len(y)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= len(y); i += 8 {
		xv := x[i : i+8 : i+8]
		yv := y[i : i+8 : i+8]
		y0, y1, y2, y3 := yv[0]+a*xv[0], yv[1]+a*xv[1], yv[2]+a*xv[2], yv[3]+a*xv[3]
		y4, y5, y6, y7 := yv[4]+a*xv[4], yv[5]+a*xv[5], yv[6]+a*xv[6], yv[7]+a*xv[7]
		yv[0], yv[1], yv[2], yv[3], yv[4], yv[5], yv[6], yv[7] = y0, y1, y2, y3, y4, y5, y6, y7
		s0 += y0*y0 + y4*y4
		s1 += y1*y1 + y5*y5
		s2 += y2*y2 + y6*y6
		s3 += y3*y3 + y7*y7
	}
	for ; i < len(y); i++ {
		yi := y[i] + a*x[i]
		y[i] = yi
		s0 += yi * yi
	}
	return (s0 + s1) + (s2 + s3)
}

// dot2K returns (<r0, x>, <r1, x>): two row-dots sharing every load of x,
// each with 2 independent accumulators. Two concurrent row streams beat the
// single-stream bandwidth ceiling, which is why MulVec pairs its rows.
func dot2K(r0, r1, x []float64) (float64, float64) {
	var a0, a1, b0, b1 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xv := x[i : i+4 : i+4]
		u := r0[i : i+4 : i+4]
		v := r1[i : i+4 : i+4]
		a0 += u[0]*xv[0] + u[2]*xv[2]
		a1 += u[1]*xv[1] + u[3]*xv[3]
		b0 += v[0]*xv[0] + v[2]*xv[2]
		b1 += v[1]*xv[1] + v[3]*xv[3]
	}
	for ; i < len(x); i++ {
		a0 += r0[i] * x[i]
		b0 += r1[i] * x[i]
	}
	return a0 + a1, b0 + b1
}

// dot4K returns (<r0,x>, <r1,x>, <r2,x>, <r3,x>): four row-dots sharing
// every load of x, each with 2 independent accumulators — five concurrent
// streams per pass. Used for remainder rows below a full dot6K block and by
// the gathered-column Gram kernel.
func dot4K(r0, r1, r2, r3, x []float64) (float64, float64, float64, float64) {
	var a0, a1, b0, b1, c0, c1, d0, d1 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xv := x[i : i+4 : i+4]
		u := r0[i : i+4 : i+4]
		v := r1[i : i+4 : i+4]
		w := r2[i : i+4 : i+4]
		z := r3[i : i+4 : i+4]
		a0 += u[0]*xv[0] + u[2]*xv[2]
		a1 += u[1]*xv[1] + u[3]*xv[3]
		b0 += v[0]*xv[0] + v[2]*xv[2]
		b1 += v[1]*xv[1] + v[3]*xv[3]
		c0 += w[0]*xv[0] + w[2]*xv[2]
		c1 += w[1]*xv[1] + w[3]*xv[3]
		d0 += z[0]*xv[0] + z[2]*xv[2]
		d1 += z[1]*xv[1] + z[3]*xv[3]
	}
	for ; i < len(x); i++ {
		a0 += r0[i] * x[i]
		b0 += r1[i] * x[i]
		c0 += r2[i] * x[i]
		d0 += r3[i] * x[i]
	}
	return a0 + a1, b0 + b1, c0 + c1, d0 + d1
}

// dot6K returns the six row-dots (<r0,x>, …, <r5,x>) sharing every load of
// x — seven concurrent streams per pass, each row reduced through a paired
// tree (one accumulator per row; the tree breaks the serial add chain). The
// widest profitable row blocking for MulVec on a bandwidth-bound core: six
// streams saturate the load ports where four leave bandwidth unused. The
// rows are resliced to len(x) up front, so the compiler proves every row
// index in bounds and only x's loads keep their checks.
func dot6K(r0, r1, r2, r3, r4, r5, x []float64) (y0, y1, y2, y3, y4, y5 float64) {
	n := len(x)
	r0, r1, r2, r3, r4, r5 = r0[:n], r1[:n], r2[:n], r3[:n], r4[:n], r5[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		y0 += (r0[i]*x0 + r0[i+1]*x1) + (r0[i+2]*x2 + r0[i+3]*x3)
		y1 += (r1[i]*x0 + r1[i+1]*x1) + (r1[i+2]*x2 + r1[i+3]*x3)
		y2 += (r2[i]*x0 + r2[i+1]*x1) + (r2[i+2]*x2 + r2[i+3]*x3)
		y3 += (r3[i]*x0 + r3[i+1]*x1) + (r3[i+2]*x2 + r3[i+3]*x3)
		y4 += (r4[i]*x0 + r4[i+1]*x1) + (r4[i+2]*x2 + r4[i+3]*x3)
		y5 += (r5[i]*x0 + r5[i+1]*x1) + (r5[i+2]*x2 + r5[i+3]*x3)
	}
	for ; i < n; i++ {
		xi := x[i]
		y0 += r0[i] * xi
		y1 += r1[i] * xi
		y2 += r2[i] * xi
		y3 += r3[i] * xi
		y4 += r4[i] * xi
		y5 += r5[i] * xi
	}
	return
}

// axpyK computes y += a*x, 4-wide. Element updates are independent, so this
// is bit-identical to the scalar loop. Iterates len(x); len(y) >= len(x).
func axpyK(a float64, x, y []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xv := x[i : i+4 : i+4]
		yv := y[i : i+4 : i+4]
		yv[0] += a * xv[0]
		yv[1] += a * xv[1]
		yv[2] += a * xv[2]
		yv[3] += a * xv[3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// axpyRowsK computes dst[t] = x[t] + a[0]·rows[0][t] + … + a[k−1]·rows[k−1][t]
// for every t, adding each entry's terms left to right in a register: the
// entries k axpyK passes over dst would leave, in one pass. Four entries
// are summed at once, so four independent add chains overlap and each
// row's four loads share one bounds check; eight chains ran no faster, as
// their accumulators and loads do not fit the registers. Iterates
// len(dst); x, a's first len(rows) entries and every row must be at least
// that long.
func axpyRowsK(dst, x, a []float64, rows [][]float64) {
	n := len(dst)
	x, a = x[:n], a[:len(rows)]
	t := 0
	for ; t+4 <= n; t += 4 {
		xv := x[t : t+4 : t+4]
		s0, s1, s2, s3 := xv[0], xv[1], xv[2], xv[3]
		for i, r := range rows {
			ai, rv := a[i], r[t:t+4:t+4]
			s0 += ai * rv[0]
			s1 += ai * rv[1]
			s2 += ai * rv[2]
			s3 += ai * rv[3]
		}
		dv := dst[t : t+4 : t+4]
		dv[0], dv[1], dv[2], dv[3] = s0, s1, s2, s3
	}
	for ; t < n; t++ {
		s := x[t]
		for i, r := range rows {
			s += a[i] * r[t]
		}
		dst[t] = s
	}
}

// scaleToK computes dst = a*x, 4-wide. Element updates are independent, so
// this is bit-identical to the scalar loop; at N = 24 576 it took 12–18 µs
// where the one-at-a-time loop took 28–40 µs on a 2-vCPU Xeon VM. Iterates
// len(x); len(dst) >= len(x).
func scaleToK(dst []float64, a float64, x []float64) {
	dst = dst[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xv := x[i : i+4 : i+4]
		dv := dst[i : i+4 : i+4]
		dv[0], dv[1], dv[2], dv[3] = a*xv[0], a*xv[1], a*xv[2], a*xv[3]
	}
	for ; i < len(x); i++ {
		dst[i] = a * x[i]
	}
}

// axpy4K computes y += a0*r0 + a1*r1 + a2*r2 + a3*r3 in one pass, fusing four
// row streams per load of y. The rows are resliced to len(y) up front, so
// the loop carries no bounds check. Iterates len(y); rows must be >= len(y).
func axpy4K(a0, a1, a2, a3 float64, r0, r1, r2, r3, y []float64) {
	n := len(y)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for i := range y {
		y[i] += (a0*r0[i] + a1*r1[i]) + (a2*r2[i] + a3*r3[i])
	}
}

// axpy4x2K computes y += a0*r0 + a1*r1 + a2*r2 + a3*r3 and
// z += b0*r0 + b1*r1 + b2*r2 + b3*r3 in one pass: two axpy4K updates
// sharing every load of the four row streams. Each entry of y and z is
// summed exactly as axpy4K sums it. Iterates len(y); z and the rows must be
// >= len(y).
func axpy4x2K(a0, a1, a2, a3, b0, b1, b2, b3 float64, r0, r1, r2, r3, y, z []float64) {
	n := len(y)
	z, r0, r1, r2, r3 = z[:n], r0[:n], r1[:n], r2[:n], r3[:n]
	for i := range y {
		v0, v1, v2, v3 := r0[i], r1[i], r2[i], r3[i]
		y[i] += (a0*v0 + a1*v1) + (a2*v2 + a3*v3)
		z[i] += (b0*v0 + b1*v1) + (b2*v2 + b3*v3)
	}
}

// mulToTileJ is the dst/B column-tile width for MulTo: 512 float64 = 4 KiB
// per row stream, so the six streams of a 2-row, 4-row-fused update panel
// stay L1-resident.
const mulToTileJ = 512

// mulToPanel accumulates dst[:, jLo:jHi] += A·B[:, jLo:jHi] with 4-way
// k-unrolling over pairs of dst rows: each pass updates two dst rows by
// four B rows (axpy4x2K), so every B load serves both rows. Each dst entry
// gets its four-row groups, then the remainder rows, in the order
// MulVecT's mulVecTRows adds them, so row i of A·B equals
// B.MulVecT(A.Row(i)) bit for bit. dst must be pre-zeroed (or hold the
// partial sum being extended).
func mulToPanel(dst, a, b *Dense, jLo, jHi int) {
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		x, w := a.Row(i), a.Row(i+1)
		y, z := dst.Row(i)[jLo:jHi], dst.Row(i + 1)[jLo:jHi]
		k := 0
		for ; k+4 <= a.Cols; k += 4 {
			axpy4x2K(x[k], x[k+1], x[k+2], x[k+3], w[k], w[k+1], w[k+2], w[k+3],
				b.Row(k)[jLo:jHi], b.Row(k + 1)[jLo:jHi],
				b.Row(k + 2)[jLo:jHi], b.Row(k + 3)[jLo:jHi], y, z)
		}
		for ; k < a.Cols; k++ {
			r := b.Row(k)[jLo:jHi]
			axpyK(x[k], r, y)
			axpyK(w[k], r, z)
		}
	}
	if i < a.Rows {
		x, y := a.Row(i), dst.Row(i)[jLo:jHi]
		k := 0
		for ; k+4 <= a.Cols; k += 4 {
			axpy4K(x[k], x[k+1], x[k+2], x[k+3],
				b.Row(k)[jLo:jHi], b.Row(k + 1)[jLo:jHi],
				b.Row(k + 2)[jLo:jHi], b.Row(k + 3)[jLo:jHi], y)
		}
		for ; k < a.Cols; k++ {
			axpyK(x[k], b.Row(k)[jLo:jHi], y)
		}
	}
}

// ataPanel accumulates rows [pLo, pHi) of the upper triangle of G += AᵀA.
// Eight rows of A are blocked per pass, dividing the re-streaming traffic
// over G's rows by 8 and giving the core nine concurrent streams (8 data
// rows + the G row). Every G element is owned by exactly one output row and
// accumulated in a fixed order independent of the [pLo, pHi) split, so
// splitting the output rows across workers is deterministic at any split.
func ataPanel(a, g *Dense, pLo, pHi int) {
	rows := a.Rows
	i := 0
	for ; i+8 <= rows; i += 8 {
		r0, r1, r2, r3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		r4, r5, r6, r7 := a.Row(i+4), a.Row(i+5), a.Row(i+6), a.Row(i+7)
		for p := pLo; p < pHi; p++ {
			v0, v1, v2, v3 := r0[p], r1[p], r2[p], r3[p]
			v4, v5, v6, v7 := r4[p], r5[p], r6[p], r7[p]
			grow := g.Row(p)
			for q := p; q < len(grow); q++ {
				grow[q] += ((v0*r0[q] + v1*r1[q]) + (v2*r2[q] + v3*r3[q])) +
					((v4*r4[q] + v5*r5[q]) + (v6*r6[q] + v7*r7[q]))
			}
		}
	}
	for ; i < rows; i++ {
		row := a.Row(i)
		for p := pLo; p < pHi; p++ {
			vp := row[p]
			grow := g.Row(p)
			for q := p; q < len(grow); q++ {
				grow[q] += vp * row[q]
			}
		}
	}
}

// mirrorLower copies the computed upper triangle of a symmetric matrix into
// its lower triangle.
func mirrorLower(g *Dense) {
	for p := 0; p < g.Rows; p++ {
		for q := p + 1; q < g.Cols; q++ {
			g.Set(q, p, g.At(p, q))
		}
	}
}
