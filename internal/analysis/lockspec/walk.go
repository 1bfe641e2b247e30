package lockspec

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// walkOrder lists the function summaries in source-position order, the
// order every pass walks them in, so that identical input gives identical
// summaries on every run.
func (s *Spec) walkOrder() []*FuncSummary {
	order := make([]*FuncSummary, 0, len(s.Funcs))
	for _, sum := range s.Funcs {
		order = append(order, sum)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Decl.Pos() < order[j].Decl.Pos() })
	return order
}

// walkAll re-walks every function in order against the current summaries
// and reports whether any summary changed — one pass of the fixpoint driver.
// Wrapper net effects (lock()/unlock() calling through to an annotated
// mutex) and the transitive may-acquire/may-block/may-append bits need the
// iteration: a helper method that releases a commit's locks through further
// helpers is several calls deep, and a pass settles at least one more link.
func (s *Spec) walkAll(order []*FuncSummary) bool {
	changed := false
	for _, sum := range order {
		if sum.Decl.Body == nil {
			continue
		}
		w := &walker{
			s:               s,
			tokens:          make(map[types.Object][]HeldLock),
			mayAcquire:      make(map[int]bool),
			virtualReleased: make(map[*LockInfo]bool),
			acquireSafe:     make(map[int]map[*LockInfo]bool),
		}
		w.stmts(sum.Decl.Body.List)
		net := w.netAcquire()
		if !sameHeld(net, sum.NetAcquire) || !sameLocks(w.netRelease, sum.NetRelease) ||
			!sameLevels(w.mayAcquire, sum.MayAcquire) || w.mayBlock != sum.MayBlock ||
			w.mayAppend != sum.MayAppend || w.returnsRelease != sum.ReturnsRelease ||
			!sameLockSet(w.blockSafe, sum.BlockSafe) || !sameAcquireSafe(w.acquireSafe, sum.AcquireSafe) {
			changed = true
		}
		sum.Events = w.events
		sum.NetAcquire = net
		sum.NetRelease = w.netRelease
		sum.MayAcquire = w.mayAcquire
		sum.MayBlock = w.mayBlock
		sum.MayAppend = w.mayAppend
		sum.ReturnsRelease = w.returnsRelease
		sum.BlockSafe = w.blockSafe
		sum.AcquireSafe = w.acquireSafe
	}
	return changed
}

func sameHeld(a, b []HeldLock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Lock != b[i].Lock || a[i].RLock != b[i].RLock {
			return false
		}
	}
	return true
}

func sameLocks(a, b []*LockInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameLevels(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sameLockSet(a, b map[*LockInfo]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sameAcquireSafe(a, b map[int]map[*LockInfo]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if !sameLockSet(av, b[k]) {
			return false
		}
	}
	return true
}

// walker linearizes one function body. Control flow is approximated: both
// arms of a branch are walked, an early-exit arm's lock-state changes are
// discarded for the continuation, loop bodies are walked once, and go-
// statement bodies are walked with an empty held set (a new goroutine
// inherits no locks).
type walker struct {
	s      *Spec
	events []Event

	held     []HeldLock
	deferred []*LockInfo
	tokens   map[types.Object][]HeldLock

	bg             bool
	noChanBlock    bool
	synthetic      bool // applying a callee's net effects: no occurrence records
	mayAcquire     map[int]bool
	mayBlock       bool
	mayAppend      bool
	netRelease     []*LockInfo
	returnsRelease bool

	// virtualReleased tracks caller-held locks this function has released
	// (the split-phase idiom); blockSafe/acquireSafe accumulate, per lock,
	// whether every blocking occurrence happened in a safe window — see
	// FuncSummary.BlockSafe. blockSafe is the intersection across blocking
	// occurrences of the locks safe at each one (nil until first occurrence).
	virtualReleased map[*LockInfo]bool
	blockSafe       map[*LockInfo]bool
	blockSeen       bool
	acquireSafe     map[int]map[*LockInfo]bool
}

// occSet is the set of locks "safe" at the current point: locks this
// function already released (caller no longer blocked through us) plus
// locks it currently holds itself (any finding is reported locally), plus
// extra safety inherited from a callee's own summary.
func (w *walker) occSet(extra map[*LockInfo]bool) map[*LockInfo]bool {
	set := make(map[*LockInfo]bool, len(w.virtualReleased)+len(w.held)+len(extra))
	for li := range w.virtualReleased {
		set[li] = true
	}
	for _, h := range w.held {
		set[h.Lock] = true
	}
	for li := range extra {
		set[li] = true
	}
	return set
}

func intersectInto(acc, set map[*LockInfo]bool) map[*LockInfo]bool {
	for li := range acc {
		if !set[li] {
			delete(acc, li)
		}
	}
	return acc
}

func (w *walker) recordBlock(extra map[*LockInfo]bool) {
	if w.bg {
		return
	}
	set := w.occSet(extra)
	if !w.blockSeen {
		w.blockSeen = true
		w.blockSafe = set
		return
	}
	w.blockSafe = intersectInto(w.blockSafe, set)
}

func (w *walker) recordAcquire(level int, extra map[*LockInfo]bool) {
	if w.bg {
		return
	}
	set := w.occSet(extra)
	if acc, ok := w.acquireSafe[level]; ok {
		w.acquireSafe[level] = intersectInto(acc, set)
		return
	}
	w.acquireSafe[level] = set
}

func (w *walker) snapshot() []HeldLock {
	return append([]HeldLock(nil), w.held...)
}

func (w *walker) emit(ev Event) {
	ev.Held = w.snapshot()
	ev.Bg = w.bg
	w.events = append(w.events, ev)
}

func (w *walker) acquire(li *LockInfo, rlock, try bool, constIdx int64, pos PosLike) {
	w.emit(Event{Kind: KAcquire, Pos: pos.Pos(), Lock: li, RLock: rlock, Try: try, ConstIndex: constIdx})
	if !try && !w.bg {
		w.mayAcquire[li.Level] = true
		if !w.synthetic {
			w.recordAcquire(li.Level, nil)
		}
	}
	for _, h := range w.held {
		if h.Lock == li {
			return // indexed family or reacquisition: one held entry suffices
		}
	}
	w.held = append(w.held, HeldLock{Lock: li, RLock: rlock, Try: try})
}

func (w *walker) release(li *LockInfo, pos PosLike) {
	w.emit(Event{Kind: KRelease, Pos: pos.Pos(), Lock: li})
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].Lock == li {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
	// Released without a visible acquisition: an unlock wrapper or the
	// split-phase idiom releasing the caller's lock. Record the net effect
	// for callers; from here on the lock counts as safe for occurrences.
	w.virtualReleased[li] = true
	for _, r := range w.netRelease {
		if r == li {
			return
		}
	}
	w.netRelease = append(w.netRelease, li)
}

// netAcquire is the walker's end-of-body held set minus deferred releases.
func (w *walker) netAcquire() []HeldLock {
	out := append([]HeldLock(nil), w.held...)
	for _, d := range w.deferred {
		for i := len(out) - 1; i >= 0; i-- {
			if out[i].Lock == d {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
	}
	return out
}

// PosLike is the fragment of ast.Node the walker needs for positions.
type PosLike interface{ Pos() token.Pos }

type walkState struct {
	held            []HeldLock
	tokens          map[types.Object][]HeldLock
	virtualReleased map[*LockInfo]bool
}

func (w *walker) saveState() walkState {
	tk := make(map[types.Object][]HeldLock, len(w.tokens))
	for k, v := range w.tokens {
		tk[k] = v
	}
	vr := make(map[*LockInfo]bool, len(w.virtualReleased))
	for k, v := range w.virtualReleased {
		vr[k] = v
	}
	return walkState{held: w.snapshot(), tokens: tk, virtualReleased: vr}
}

func (w *walker) restoreState(st walkState) {
	w.held, w.tokens, w.virtualReleased = st.held, st.tokens, st.virtualReleased
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, st := range list {
		w.stmt(st)
	}
}

// terminates reports whether the block's fallthrough edge is dead.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *walker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		w.scanExpr(st.X)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.scanExpr(rhs)
		}
		w.registerToken(st)
		for _, lhs := range st.Lhs {
			w.noteWrite(lhs)
		}
	case *ast.IncDecStmt:
		w.scanExpr(st.X)
		w.noteWrite(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.scanExpr(st.Chan)
		w.scanExpr(st.Value)
		if !w.noChanBlock {
			w.emit(Event{Kind: KBlock, Pos: st.Pos(), Desc: "channel send"})
			w.recordBlock(nil)
			if !w.bg {
				w.mayBlock = true
			}
		}
	case *ast.ReturnStmt:
		for _, res := range st.Results {
			w.scanExpr(res)
			w.noteReturnedRelease(res)
		}
		w.emit(Event{Kind: KReturn, Pos: st.Pos(), Return: st})
	case *ast.DeferStmt:
		w.deferCall(st.Call)
	case *ast.GoStmt:
		saved := w.saveState()
		savedBg := w.bg
		w.held, w.bg = nil, true
		w.tokens = make(map[types.Object][]HeldLock)
		w.virtualReleased = make(map[*LockInfo]bool)
		if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			for _, arg := range st.Call.Args {
				w.scanExpr(arg)
			}
			w.stmts(lit.Body.List)
		} else {
			w.scanExpr(st.Call)
		}
		w.bg = savedBg
		w.restoreState(saved)
	case *ast.IfStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.scanExpr(st.Cond)
		pre := w.saveState()
		w.stmts(st.Body.List)
		then := w.saveState()
		bodyDead := terminates(st.Body.List)
		w.restoreState(pre)
		var elseDead bool
		var elseSt walkState
		if st.Else != nil {
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				w.stmts(e.List)
				elseDead = terminates(e.List)
			case *ast.IfStmt:
				w.stmt(e)
			}
			elseSt = w.saveState()
			w.restoreState(pre)
		}
		switch {
		case bodyDead && st.Else == nil:
			// guard clause: continuation state is the pre-if state
		case bodyDead:
			w.restoreState(elseSt)
		case st.Else != nil && elseDead:
			w.restoreState(then)
		default:
			w.restoreState(then)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Cond != nil {
			w.scanExpr(st.Cond)
		}
		w.stmts(st.Body.List)
		if st.Post != nil {
			w.stmt(st.Post)
		}
	case *ast.RangeStmt:
		w.scanExpr(st.X)
		w.stmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Tag != nil {
			w.scanExpr(st.Tag)
		}
		w.clauses(st.Body.List)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		w.stmt(st.Assign)
		w.clauses(st.Body.List)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.emit(Event{Kind: KBlock, Pos: st.Pos(), Desc: "select without default"})
			w.recordBlock(nil)
			if !w.bg {
				w.mayBlock = true
			}
		}
		w.clauses(st.Body.List)
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	}
}

// clauses walks each case body on a copy of the current state; the
// post-switch state is the pre-switch one (balanced-branches assumption).
func (w *walker) clauses(list []ast.Stmt) {
	pre := w.saveState()
	for _, c := range list {
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.scanExpr(e)
			}
			w.stmts(cc.Body)
		case *ast.CommClause:
			if cc.Comm != nil {
				// The comm op's blocking is the enclosing select's concern
				// (already reported when it has no default), not the op's.
				w.noChanBlock = true
				w.stmt(cc.Comm)
				w.noChanBlock = false
			}
			w.stmts(cc.Body)
		}
		w.restoreState(pre)
		pre = w.saveState()
	}
}

// deferCall handles defer statements: deferred unlocks keep the lock held
// for the rest of the body but balance the function's net effect; other
// deferred calls are treated as happening at the defer site.
func (w *walker) deferCall(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if li, _ := w.s.LockOf(sel.X); li != nil {
			switch sel.Sel.Name {
			case "Unlock", "RUnlock":
				w.deferred = append(w.deferred, li)
				return
			}
		}
	}
	// defer release() on a token from qlock()
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := w.s.info.Uses[id]; obj != nil {
			if locks, ok := w.tokens[obj]; ok {
				for _, h := range locks {
					w.deferred = append(w.deferred, h.Lock)
				}
				return
			}
		}
	}
	// defer e.qlock()() — immediate acquire, deferred release
	if inner, ok := ast.Unparen(call.Fun).(*ast.CallExpr); ok {
		if fn := w.s.calleeOf(inner); fn != nil {
			if sum, ok := w.s.Funcs[fn]; ok && sum.ReturnsRelease {
				w.scanExpr(inner)
				for _, h := range sum.NetAcquire {
					w.deferred = append(w.deferred, h.Lock)
				}
				return
			}
		}
	}
	w.scanExpr(call)
}

// registerToken records `release := e.qlock()`-style assignments so later
// release() calls undo the acquisition.
func (w *walker) registerToken(st *ast.AssignStmt) {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return
	}
	id, ok := ast.Unparen(st.Lhs[0]).(*ast.Ident)
	if !ok {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := w.s.calleeOf(call)
	if fn == nil {
		return
	}
	sum, ok := w.s.Funcs[fn]
	if !ok || !sum.ReturnsRelease || len(sum.NetAcquire) == 0 {
		return
	}
	obj := w.s.info.Defs[id]
	if obj == nil {
		obj = w.s.info.Uses[id]
	}
	if obj != nil {
		w.tokens[obj] = sum.NetAcquire
	}
}

// noteReturnedRelease marks wrappers that return the matching unlock as a
// method value (qlock).
func (w *walker) noteReturnedRelease(res ast.Expr) {
	sel, ok := ast.Unparen(res).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock" {
		return
	}
	if li, _ := w.s.LockOf(sel.X); li != nil {
		w.returnsRelease = true
	}
}

// scanExpr emits events for an expression tree in evaluation-ish order.
func (w *walker) scanExpr(expr ast.Expr) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closure body: walked with the current held set (closures in
			// this codebase run where they are built or via defer).
			w.stmts(n.Body.List)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !w.noChanBlock {
				w.emit(Event{Kind: KBlock, Pos: n.Pos(), Desc: "channel receive"})
				w.recordBlock(nil)
				if !w.bg {
					w.mayBlock = true
				}
			}
		case *ast.CallExpr:
			return w.call(n)
		case *ast.SelectorExpr:
			if v, ok := w.s.info.Uses[n.Sel].(*types.Var); ok && w.s.StagedOnly[v] {
				w.emit(Event{Kind: KRead, Pos: n.Pos(), Field: v})
			}
		case *ast.Ident:
			if v, ok := w.s.info.Uses[n].(*types.Var); ok && w.s.StagedOnly[v] {
				w.emit(Event{Kind: KRead, Pos: n.Pos(), Field: v})
			}
		}
		return true
	})
}

// call classifies one call expression; the return value feeds ast.Inspect
// (false: operands already handled).
func (w *walker) call(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if li, constIdx := w.s.LockOf(sel.X); li != nil {
			switch sel.Sel.Name {
			case "Lock":
				w.acquire(li, false, false, constIdx, call)
				return false
			case "RLock":
				w.acquire(li, true, false, constIdx, call)
				return false
			case "TryLock":
				w.acquire(li, false, true, constIdx, call)
				return false
			case "Unlock", "RUnlock":
				w.release(li, call)
				return false
			}
		}
		// Atomic mutation of an annotated visibility field publishes.
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if v, ok := w.s.info.Uses[inner.Sel].(*types.Var); ok && (w.s.Visibility[v] || w.s.StagedOnly[v] || w.s.StagedDelta[v]) {
				switch sel.Sel.Name {
				case "Store", "Add", "Swap", "CompareAndSwap":
					w.emit(Event{Kind: KWrite, Pos: call.Pos(), Field: v})
					for _, arg := range call.Args {
						w.scanExpr(arg)
					}
					return false
				}
			}
		}
	}
	// release-token invocation: release := e.qlock(); ...; release()
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := w.s.info.Uses[id]; obj != nil {
			if locks, ok := w.tokens[obj]; ok {
				for _, h := range locks {
					w.release(h.Lock, call)
				}
				return false
			}
		}
	}
	if fn := w.s.calleeOf(call); fn != nil {
		for _, arg := range call.Args {
			w.scanExpr(arg)
		}
		w.emit(Event{Kind: KCall, Pos: call.Pos(), Callee: fn})
		// Occurrence records come before the net effects: the callee's own
		// refined safety (what it releases before blocking) is in the extra
		// set, not in this function's state yet.
		if !w.bg {
			if w.s.CalleeMayBlock(fn) {
				w.mayBlock = true
				w.recordBlock(w.s.CalleeBlockSafe(fn))
			}
			for _, l := range w.s.CalleeMayAcquire(fn) {
				w.mayAcquire[l] = true
				w.recordAcquire(l, w.s.CalleeAcquireSafe(fn, l))
			}
			if w.s.CalleeMayAppend(fn) {
				w.mayAppend = true
			}
		}
		if sum, ok := w.s.Funcs[fn]; ok {
			// Releases first: a split-phase callee with equal net release
			// and net acquire of the same lock (release, work, re-lock)
			// leaves the caller's held set unchanged, not self-deadlocked.
			w.synthetic = true
			for _, li := range sum.NetRelease {
				w.release(li, call)
			}
			for _, h := range sum.NetAcquire {
				w.acquire(h.Lock, h.RLock, h.Try, -1, call)
			}
			w.synthetic = false
		}
		return false
	}
	return true
}

// noteWrite emits KWrite when the assignment target is (or indexes
// through) an annotated visibility or staged-only field.
func (w *walker) noteWrite(lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		lhs = ast.Unparen(idx.X)
	}
	var v *types.Var
	switch e := lhs.(type) {
	case *ast.SelectorExpr:
		v, _ = w.s.info.Uses[e.Sel].(*types.Var)
	case *ast.Ident:
		v, _ = w.s.info.Uses[e].(*types.Var)
	}
	if v == nil {
		return
	}
	if w.s.Visibility[v] || w.s.StagedOnly[v] || w.s.StagedDelta[v] {
		w.emit(Event{Kind: KWrite, Pos: lhs.Pos(), Field: v})
	}
}
