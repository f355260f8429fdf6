package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SharedState proves every mutable location captured by a goroutine safe:
// guarded by a consistent lockset, accessed only through sync/atomic,
// ownership-transferred over a channel, or frozen before launch. "Captured
// by a goroutine" covers both function literals launched by a `go`
// statement and literals handed to a pool sink — any callee parameter the
// escape analysis (conc.go) proves to reach a `go` statement or a job
// channel, which resolves the internal/mat worker-pool chain
// (ParallelChunks → trySubmit) without a hard-coded list.
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc: "variables captured by goroutines or pool-submitted closures must be lock-guarded, atomic, channel-transferred, or frozen before launch; " +
		"guard every access with one mutex, use sync/atomic consistently, or stop sharing the variable",
	SkipTests: true,
	Run:       runSharedState,
}

// shLoc is one shared mutable location: a captured variable, or one named
// field reached through a captured pointer/struct. Field granularity keeps
// a read of the pointer `c` itself (always safe — it is never reassigned)
// distinct from a write to `c.state` through it.
type shLoc struct {
	obj   types.Object
	field string // "" for the variable itself
}

func (l shLoc) display() string {
	if l.field == "" {
		return l.obj.Name()
	}
	return l.obj.Name() + "." + l.field
}

// shAccess is one classified access to a location.
type shAccess struct {
	pos      token.Pos
	write    bool
	atomic   bool
	site     int             // launch-site index, -1 for enclosing-function accesses
	locks    []string        // lockset held at the access (sorted)
	assign   *ast.AssignStmt // non-nil for a simple `x = rhs` write (fix target)
	elemType types.Type      // location's type, for the atomic fix
}

// runSharedState analyzes every function that launches goroutines.
func runSharedState(p *Pass) {
	if p.Pkg.TypesInfo == nil {
		return
	}
	p.EachFile(func(f *ast.File) {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			analyzeSharedFunc(p, decl)
		}
	})
}

// analyzeSharedFunc checks one enclosing function's launch sites.
func analyzeSharedFunc(p *Pass, decl *ast.FuncDecl) {
	sites := launchSites(p.Prog, p.Pkg, decl.Body)
	if len(sites) == 0 {
		return
	}
	fnID := declFuncID(p.Pkg, decl)
	resolve := func(call *ast.CallExpr) (*funcNode, *summary) {
		return p.Prog.summaryFor(p.Pkg, call)
	}

	launched := make(map[*ast.FuncLit]int, len(sites))
	for i, s := range sites {
		launched[s.lit] = i
	}

	// Lockset at every expression, per context: the enclosing body (lockFlow
	// skips literals) and each launched literal (fresh lockset — a goroutine
	// starts holding nothing).
	heldAt := make(map[token.Pos][]string)
	observe := func(e ast.Expr, held map[string]bool) {
		if _, seen := heldAt[e.Pos()]; !seen {
			heldAt[e.Pos()] = sortedHeld(held)
		}
	}
	outer := newLockFlow(p.Pkg, fnID, resolve)
	outer.on = observe
	outer.walk(decl.Body)
	for _, s := range sites {
		inner := newLockFlow(p.Pkg, fnID, resolve)
		inner.on = observe
		inner.walk(s.lit.Body)
	}

	// Classified accesses per location. sent marks objects handed over a
	// channel — ownership transfer, clause (c) of the invariant.
	accs := make(map[shLoc][]shAccess)
	sent := make(map[types.Object]bool)
	collectAccesses(p, decl.Body, sites, launched, heldAt, accs, sent)

	goLaunch, barrier := launchWindow(p, decl.Body, sites)

	locs := make([]shLoc, 0, len(accs))
	for l := range accs {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].obj.Pos() != locs[j].obj.Pos() {
			return locs[i].obj.Pos() < locs[j].obj.Pos()
		}
		return locs[i].field < locs[j].field
	})
	for _, l := range locs {
		if sent[l.obj] {
			continue
		}
		checkLocation(p, l, accs[l], sites, goLaunch, barrier, decl)
	}
}

// launchWindow finds the start of the concurrent window (the first `go`
// launch) and its end (the first barrier after it — a WaitGroup.Wait or a
// channel receive in the enclosing body). Pool sites open no window: the
// sink only returns after the submitted work completed. Returns NoPos when
// the function has no `go`-kind site.
func launchWindow(p *Pass, body *ast.BlockStmt, sites []launchSite) (launch, barrier token.Pos) {
	launch, barrier = token.NoPos, token.NoPos
	for _, s := range sites {
		if s.kind == "go" && (launch == token.NoPos || s.pos < launch) {
			launch = s.pos
		}
	}
	if launch == token.NoPos {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		var pos token.Pos
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				pos = x.Pos()
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pos = x.Pos()
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if t := p.TypeOf(sel.X); t != nil && isSyncType(t, "WaitGroup") {
					pos = x.Pos()
				}
			}
		}
		if pos.IsValid() && pos > launch && (barrier == token.NoPos || pos < barrier) {
			barrier = pos
		}
		return true
	})
	return
}

// isSyncType reports whether t (or its pointee) is sync.<name>.
func isSyncType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == name
}

// collectAccesses classifies every access in the function: writes via
// assignment/inc-dec lvalues, atomic accesses via sync/atomic calls, and
// plain reads for remaining identifier uses. Accesses inside launched
// literals carry their site index; accesses inside other (synchronously
// invoked or deferred) literals are skipped — their execution context is
// the caller's and the lockset walker cannot place them.
func collectAccesses(p *Pass, body *ast.BlockStmt, sites []launchSite, launched map[*ast.FuncLit]int, heldAt map[token.Pos][]string, accs map[shLoc][]shAccess, sent map[types.Object]bool) {
	info := p.Pkg.TypesInfo

	emit := func(l shLoc, a shAccess) {
		if l.obj == nil || syncPrimitiveLoc(l, info) {
			return
		}
		if _, isVar := l.obj.(*types.Var); !isVar {
			return
		}
		if a.site >= 0 && !declaredOutside(l.obj, sites[a.site].lit) {
			return // the literal's own locals are not shared state
		}
		a.locks = heldAt[a.pos]
		accs[l] = append(accs[l], a)
	}

	var scan func(n ast.Node, site int)
	scan = func(n ast.Node, site int) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if s, isLaunched := launched[x]; isLaunched {
					if site == -1 {
						scan(x.Body, s)
					}
					return false
				}
				return false // synchronous/deferred literal: context unknown
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					l, elem, exempt := lvalueLoc(info, lhs)
					if exempt || l.obj == nil {
						continue
					}
					a := shAccess{pos: lhs.Pos(), write: true, site: site, elemType: elem}
					if x.Tok == token.ASSIGN && len(x.Lhs) == 1 && len(x.Rhs) == 1 && i == 0 {
						a.assign = x
					}
					emit(l, a)
				}
				for _, rhs := range x.Rhs {
					scanReads(info, rhs, site, emit)
				}
				return false
			case *ast.IncDecStmt:
				if l, elem, exempt := lvalueLoc(info, x.X); !exempt && l.obj != nil {
					emit(l, shAccess{pos: x.X.Pos(), write: true, site: site, elemType: elem})
				}
				return false
			case *ast.CallExpr:
				if l, isAtomic := atomicCallLoc(info, x); isAtomic {
					if l.obj != nil {
						emit(l, shAccess{pos: x.Pos(), write: true, atomic: true, site: site})
					}
					for _, arg := range x.Args[min(1, len(x.Args)):] {
						scanReads(info, arg, site, emit)
					}
					return false
				}
				return true
			case *ast.SendStmt:
				scanReads(info, x.Chan, site, emit)
				// Sending the variable itself (or its address) transfers
				// ownership: clause (c). Sending a derived value (k * 2)
				// does not — the variable stays shared and the send is a
				// read of it.
				v := ast.Unparen(x.Value)
				if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
					v = ast.Unparen(u.X)
				}
				if id, ok := v.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						sent[obj] = true
						return false
					}
				}
				scanReads(info, x.Value, site, emit)
				return false
			case *ast.Ident:
				if obj := info.Uses[x]; obj != nil {
					emit(shLoc{obj: obj}, shAccess{pos: x.Pos(), site: site})
				}
				return false
			case *ast.SelectorExpr:
				scanReads(info, x, site, emit)
				return false
			}
			return true
		})
	}
	scan(body, -1)
}

// scanReads emits read accesses for every location an expression touches.
func scanReads(info *types.Info, e ast.Expr, site int, emit func(shLoc, shAccess)) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			emit(shLoc{obj: obj}, shAccess{pos: x.Pos(), site: site})
		}
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if obj := info.Uses[base]; obj != nil {
				emit(shLoc{obj: obj, field: x.Sel.Name}, shAccess{pos: x.Pos(), site: site})
				return
			}
		}
		scanReads(info, x.X, site, emit)
	case *ast.FuncLit:
		// handled by the caller's scan
	default:
		if x == nil {
			return
		}
		ast.Inspect(x, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectorExpr:
				scanReads(info, n, site, emit)
				return false
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					emit(shLoc{obj: obj}, shAccess{pos: n.Pos(), site: site})
				}
				return false
			}
			return true
		})
	}
}

// lvalueLoc resolves an assignment target to its location. exempt marks
// element writes through a captured slice or array — partitioned ownership,
// where disjoint index ranges per worker are the design (ParMulVec chunks,
// ParATA triangles) and the equivalence tests prove the partition; map
// element writes stay flagged (no partition protects a shared map).
func lvalueLoc(info *types.Info, e ast.Expr) (l shLoc, elem types.Type, exempt bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if obj == nil || x.Name == "_" {
			return shLoc{}, nil, false
		}
		return shLoc{obj: obj}, obj.Type(), false
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if obj := info.Uses[base]; obj != nil {
				var t types.Type
				if info.TypeOf(x) != nil {
					t = info.TypeOf(x)
				}
				return shLoc{obj: obj, field: x.Sel.Name}, t, false
			}
		}
		return lvalueLoc(info, x.X)
	case *ast.IndexExpr:
		l, elem, exempt = lvalueLoc(info, x.X)
		if exempt {
			return l, elem, true
		}
		if t := info.TypeOf(x.X); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
				return l, elem, true // partitioned element write
			case *types.Map:
				return l, elem, false
			}
		}
		return l, elem, false
	case *ast.StarExpr:
		return lvalueLoc(info, x.X)
	}
	return shLoc{}, nil, false
}

// atomicCallLoc recognizes a sync/atomic access — the function form
// (atomic.AddInt64(&x, 1)) or the method form (x.Add(1) on atomic.Int64) —
// and returns the accessed location.
func atomicCallLoc(info *types.Info, call *ast.CallExpr) (shLoc, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return shLoc{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return shLoc{}, false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		// Method form: the receiver is an atomic value type, which
		// syncPrimitiveType already exempts; nothing to track.
		return shLoc{}, true
	}
	if len(call.Args) == 0 {
		return shLoc{}, true
	}
	addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return shLoc{}, true
	}
	l, _, _ := lvalueLoc(info, addr.X)
	return l, true
}

// syncPrimitiveLoc reports whether the location is itself a synchronization
// primitive (the captured mutex, wait group, or channel IS the protocol).
func syncPrimitiveLoc(l shLoc, info *types.Info) bool {
	t := l.obj.Type()
	if l.field != "" {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		s, ok := t.Underlying().(*types.Struct)
		if !ok {
			return false
		}
		for i := 0; i < s.NumFields(); i++ {
			if s.Field(i).Name() == l.field {
				t = s.Field(i).Type()
				break
			}
		}
	}
	return syncPrimitiveType(t)
}

// checkLocation applies the shared-state invariant to one location's
// accesses. The decision tree mirrors the documented clauses: atomic
// consistency first (clause b), then locked-write discipline inside
// goroutines (clauses a/d) and the publication rules between the goroutine
// and the enclosing function (clauses a/c/d).
func checkLocation(p *Pass, l shLoc, accs []shAccess, sites []launchSite, goLaunch, barrier token.Pos, decl *ast.FuncDecl) {
	var insideW, insideR, outsideW, outsideR []shAccess
	hasAtomic, insideAtomic := false, false
	for _, a := range accs {
		if a.atomic {
			hasAtomic = true
			insideAtomic = insideAtomic || a.site >= 0
			continue
		}
		switch {
		case a.site >= 0 && a.write:
			insideW = append(insideW, a)
		case a.site >= 0:
			insideR = append(insideR, a)
		case a.write:
			outsideW = append(outsideW, a)
		default:
			outsideR = append(outsideR, a)
		}
	}
	if len(insideW)+len(insideR) == 0 && !insideAtomic {
		return // never touched concurrently
	}

	inWindow := func(a shAccess) bool {
		if goLaunch == token.NoPos || a.pos < goLaunch {
			return false // pre-launch accesses are initialization
		}
		return barrier == token.NoPos || a.pos < barrier
	}

	// Clause (b): no mixed atomic/plain access. Pre-launch plain writes are
	// initialization (ordered before the goroutine exists) and stay legal.
	if hasAtomic {
		for _, a := range append(insideW, insideR...) {
			p.Reportf(a.pos, "captured %s mixes sync/atomic and plain access; make every post-launch access atomic", l.display())
			suggestAtomicFix(p, a)
		}
		for _, a := range append(outsideW, outsideR...) {
			if !inWindow(a) {
				continue
			}
			p.Reportf(a.pos, "captured %s mixes sync/atomic and plain access; make every post-launch access atomic", l.display())
			suggestAtomicFix(p, a)
		}
		return
	}

	// The goroutine side's common guard: the intersection of locksets over
	// every inside write.
	guard := commonGuard(insideW)

	// Clause (a), goroutine side: every inside write needs a lock unless the
	// location is confined to a single non-repeated goroutine.
	if len(insideW) > 0 && len(guard) == 0 {
		if singleOwner(l, insideW, insideR, outsideW, outsideR, sites, decl, goLaunch, barrier) {
			return
		}
		for _, a := range insideW {
			if len(a.locks) == 0 {
				p.Reportf(a.pos, "captured %s is written inside a goroutine without a lock, atomic access, channel transfer, or pre-launch freeze; guard every access with one mutex", l.display())
				return // one report per location keeps the output readable
			}
		}
		// Writes are individually locked but share no common mutex.
		a := insideW[0]
		p.Reportf(a.pos, "captured %s is guarded inconsistently across goroutine writes (%s vs %s); every access must share one mutex",
			l.display(), strings.Join(displayLocks(a.locks), "+"), strings.Join(displayLocks(insideW[len(insideW)-1].locks), "+"))
		return
	}

	// Clauses (a)/(c)/(d), enclosing side: accesses racing the launched
	// goroutines must agree with the goroutine's guard.
	for _, a := range outsideW {
		if !inWindow(a) || intersects(a.locks, guard) {
			continue
		}
		if len(insideW) == 0 && len(insideR) == 0 {
			continue
		}
		if len(a.locks) == 0 {
			p.Reportf(a.pos, "captured %s is written after the goroutine launch without synchronization; freeze it before the launch or guard both sides with the goroutine's mutex", l.display())
		} else {
			p.Reportf(a.pos, "captured %s is written under %s but the goroutine accesses it under %s; every access must share one mutex",
				l.display(), strings.Join(displayLocks(a.locks), "+"), guardName(guard))
		}
		return
	}
	for _, a := range outsideR {
		if !inWindow(a) || len(insideW) == 0 || intersects(a.locks, guard) {
			continue
		}
		if len(a.locks) == 0 {
			p.Reportf(a.pos, "captured %s is written by a goroutine but read here before any barrier; wait on the WaitGroup or receive from the goroutine's channel first", l.display())
		} else {
			p.Reportf(a.pos, "captured %s is read under %s but the goroutine writes it under %s; every access must share one mutex",
				l.display(), strings.Join(displayLocks(a.locks), "+"), guardName(guard))
		}
		return
	}
}

// suggestAtomicFix attaches the mechanical rewrite `x = rhs` →
// `atomic.StoreT(&x, rhs)` when the location's type has a direct
// sync/atomic store and the file already imports sync/atomic.
func suggestAtomicFix(p *Pass, a shAccess) {
	if a.assign == nil || a.elemType == nil {
		return
	}
	b, ok := a.elemType.(*types.Basic)
	if !ok {
		return
	}
	var fn string
	switch b.Kind() {
	case types.Int32:
		fn = "StoreInt32"
	case types.Int64:
		fn = "StoreInt64"
	case types.Uint32:
		fn = "StoreUint32"
	case types.Uint64:
		fn = "StoreUint64"
	default:
		return
	}
	if p.file == nil {
		return
	}
	name, imported := ImportName(p.file, "sync/atomic")
	if !imported || name == "_" || name == "." {
		return
	}
	lhs := types.ExprString(a.assign.Lhs[0])
	rhs := types.ExprString(a.assign.Rhs[0])
	p.SuggestFix(fmt.Sprintf("replace the plain store with %s.%s", name, fn),
		p.Edit(a.assign.Pos(), a.assign.End(),
			fmt.Sprintf("%s.%s(&%s, %s)", name, fn, lhs, rhs)))
}

// commonGuard intersects the locksets of a group of accesses; empty input
// yields nil (no guard proven).
func commonGuard(accs []shAccess) []string {
	if len(accs) == 0 {
		return nil
	}
	guard := accs[0].locks
	for _, a := range accs[1:] {
		guard = intersectSorted(guard, a.locks)
	}
	return guard
}

func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func intersects(a, b []string) bool { return len(intersectSorted(a, b)) > 0 }

func displayLocks(ids []string) []string {
	if len(ids) == 0 {
		return []string{"no lock"}
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = lockDisplay(id)
	}
	return out
}

func guardName(guard []string) string {
	if len(guard) == 0 {
		return "no lock"
	}
	return strings.Join(displayLocks(guard), "+")
}

// singleOwner reports whether the location is confined to one goroutine:
// exactly one `go`-kind launch site touches it, that site is not inside a
// loop (a looped launch spawns many instances of the literal), and the
// enclosing function neither writes it post-launch nor reads it inside the
// concurrent window. Pool-submitted literals are never single owners — a
// pool sink runs its body once per chunk, concurrently.
func singleOwner(l shLoc, insideW, insideR, outsideW, outsideR []shAccess, sites []launchSite, decl *ast.FuncDecl, goLaunch, barrier token.Pos) bool {
	siteOf := -1
	for _, a := range append(insideW, insideR...) {
		if siteOf == -1 {
			siteOf = a.site
		} else if a.site != siteOf {
			return false
		}
	}
	if siteOf < 0 || sites[siteOf].kind != "go" || launchInLoop(decl.Body, sites[siteOf].pos) {
		return false
	}
	for _, a := range outsideW {
		if a.pos > sites[siteOf].pos {
			return false
		}
	}
	for _, a := range outsideR {
		if a.pos > sites[siteOf].pos && (barrier == token.NoPos || a.pos < barrier) {
			return false
		}
	}
	return true
}

// launchInLoop reports whether pos sits inside a for/range statement of the
// body.
func launchInLoop(body *ast.BlockStmt, pos token.Pos) bool {
	in := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if n.Pos() <= pos && pos < n.End() {
				in = true
			}
		}
		return !in
	})
	return in
}

// declFuncID renders the stable funcID of a declaration, matching
// funcIDOf, for scoping local lock names.
func declFuncID(pkg *Package, decl *ast.FuncDecl) string {
	if fn, ok := pkg.TypesInfo.Defs[decl.Name].(*types.Func); ok {
		if id := funcIDOf(fn); id != "" {
			return id
		}
	}
	return pkg.ImportPath + "." + decl.Name.Name
}
