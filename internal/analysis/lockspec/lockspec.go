// Package lockspec reads the //dynlint directives off a package's AST and
// distills every function into the flat event stream the concurrency
// analyzers (lockorder, holdblock, logvisible, atomicfield) consume:
// annotated-mutex acquisitions and releases with the held-set at each
// point, blocking operations, calls, and reads/writes of annotated fields.
// It also computes the transitive per-function summaries — which lock
// levels a call may acquire, whether it may block, whether it reaches a
// WAL append — and exports them as facts so importing packages see through
// calls into internal/wal and internal/pipeline.
package lockspec

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"dyndbscan/internal/analysis"
)

// LockInfo describes one //dynlint:lock-level mutex.
type LockInfo struct {
	Field    *types.Var
	Level    int
	MayBlock bool // holding across blocking ops is part of this lock's contract
	Indexed  bool // same-level family acquired in ascending index order
	Owner    types.Type
}

// Spec is the per-package result of this analyzer.
type Spec struct {
	Locks        map[*types.Var]*LockInfo
	Visibility   map[*types.Var]bool
	StagedOnly   map[*types.Var]bool
	StagedDelta  map[*types.Var]bool // //dynlint:staged-delta — staged state backed by staged-delta WAL records
	Surface      map[*ast.File]bool  // //dynlint:reconciled-surface files
	Funcs        map[*types.Func]*FuncSummary
	fset         *token.FileSet
	info         *types.Info
	facts        *analysis.FactStore
	blocksAnn    map[*types.Func]bool
	appendsAnn   map[*types.Func]bool
	localDecls   map[*types.Func]*ast.FuncDecl
	reportedBugs []analysis.Diagnostic
}

// FuncSummary is the distilled behavior of one function declaration.
type FuncSummary struct {
	Decl   *ast.FuncDecl
	Fn     *types.Func
	Events []Event

	// NetAcquire / NetRelease are the lock effects a call to this function
	// has on its caller's held set (the lock()/unlock() wrapper pattern).
	// ReturnsRelease marks wrappers whose returned func() undoes the
	// acquisition (qlock).
	NetAcquire     []HeldLock
	NetRelease     []*LockInfo
	ReturnsRelease bool

	// MayAcquire holds every annotated level this function (transitively)
	// may acquire with a *blocking* Lock/RLock — TryLock cannot deadlock
	// and is excluded. MayBlock and MayAppend are likewise transitive.
	MayAcquire map[int]bool
	MayBlock   bool
	MayAppend  bool

	// BlockSafe and AcquireSafe refine MayBlock/MayAcquire for the split-
	// phase idiom, where a helper releases its caller's mutex before doing
	// the blocking work (release(), releaseLogged(), the wal sync cycle).
	// BlockSafe[L] means: if the caller holds L at the call, every blocking
	// operation in this function happens either after this function has
	// released L or while this function itself holds L (in which case the
	// finding is reported here, not at the caller). AcquireSafe[level][L]
	// says the same for blocking acquisitions of that lock level.
	BlockSafe   map[*LockInfo]bool
	AcquireSafe map[int]map[*LockInfo]bool
}

// EventKind discriminates Event.
type EventKind int

// Event kinds, in the order the walker emits them.
const (
	KAcquire EventKind = iota // annotated mutex Lock/RLock/TryLock
	KRelease                  // annotated mutex Unlock/RUnlock
	KBlock                    // blocking operation (channel op, select, known call)
	KCall                     // call to a resolved function object
	KWrite                    // write to an annotated field (incl. atomic Store/Add)
	KRead                     // read of an annotated staged-only field
	KReturn                   // return statement
)

// Event is one point of interest inside a function body, with the
// annotated locks held when control reaches it.
type Event struct {
	Kind       EventKind
	Pos        token.Pos
	Lock       *LockInfo
	RLock      bool
	Try        bool
	ConstIndex int64 // constant index of an indexed-family acquisition, else -1
	Callee     *types.Func
	Field      *types.Var
	Return     *ast.ReturnStmt
	Desc       string
	Held       []HeldLock // snapshot before the event takes effect
	Bg         bool       // inside a go-statement body (fresh goroutine)
}

// HeldLock is one entry of a held-set snapshot.
type HeldLock struct {
	Lock  *LockInfo
	RLock bool
	Try   bool
}

// MaxHeldLevel returns the highest non-may-exempt level in held, or -1.
func MaxHeldLevel(held []HeldLock) int {
	max := -1
	for _, h := range held {
		if h.Lock.Level > max {
			max = h.Lock.Level
		}
	}
	return max
}

// Analyzer collects the directive spec and function summaries.
var Analyzer = &analysis.Analyzer{
	Name: "lockspec",
	Doc:  "collect //dynlint directives and per-function lock/blocking summaries",
	Run:  run,
}

// maxSummaryPasses bounds the summary fixpoint: far past the helper-call
// depth of any real code.
const maxSummaryPasses = 100

// factMayAcquire etc. are the cross-package fact keys.
const (
	factMayAcquire = "lockspec.mayAcquire" // []int
	factBlocks     = "lockspec.blocks"     // bool
	factAppends    = "lockspec.appends"    // bool
)

func run(pass *analysis.Pass) (any, error) {
	s := &Spec{
		Locks:       make(map[*types.Var]*LockInfo),
		Visibility:  make(map[*types.Var]bool),
		StagedOnly:  make(map[*types.Var]bool),
		StagedDelta: make(map[*types.Var]bool),
		Surface:     make(map[*ast.File]bool),
		Funcs:       make(map[*types.Func]*FuncSummary),
		fset:        pass.Fset,
		info:        pass.TypesInfo,
		facts:       pass.Facts,
		blocksAnn:   make(map[*types.Func]bool),
		appendsAnn:  make(map[*types.Func]bool),
		localDecls:  make(map[*types.Func]*ast.FuncDecl),
	}
	s.collect(pass)

	// Summaries to a fixpoint: wrapper net-effects and the transitive
	// may-acquire/may-block/may-append bits feed back into the walk. Each
	// pass settles at least one more link of a call chain, so a spec still
	// changing past maxSummaryPasses oscillates — a walker bug, reported
	// rather than answered with whatever the last pass left.
	order := s.walkOrder()
	for passes := 1; s.walkAll(order); passes++ {
		if passes == maxSummaryPasses {
			return nil, fmt.Errorf("lockspec: function summaries still changing after %d passes", passes)
		}
	}

	// Export facts for package-level functions so importing packages see
	// through calls into this one.
	for fn, sum := range s.Funcs {
		if len(sum.MayAcquire) > 0 {
			levels := make([]int, 0, len(sum.MayAcquire))
			for l := range sum.MayAcquire {
				levels = append(levels, l)
			}
			pass.Facts.Set(fn, factMayAcquire, levels)
		}
		if sum.MayBlock || s.blocksAnn[fn] {
			pass.Facts.Set(fn, factBlocks, true)
		}
		if sum.MayAppend || s.appendsAnn[fn] {
			pass.Facts.Set(fn, factAppends, true)
		}
	}
	for _, d := range s.reportedBugs {
		pass.Reportf(d.Pos, "%s", d.Message)
	}
	return s, nil
}

// collect walks the ASTs for directives on fields, variables, functions,
// and files.
func (s *Spec) collect(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, d := range analysis.FileDirectives(f) {
			if d.Verb == "reconciled-surface" {
				s.Surface[f] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					s.fieldDirectives(field.Doc, field.Comment, field.Names, n)
				}
			case *ast.ValueSpec:
				s.fieldDirectives(n.Doc, n.Comment, n.Names, nil)
			case *ast.FuncDecl:
				fn, _ := s.info.Defs[n.Name].(*types.Func)
				if fn == nil {
					return true
				}
				s.localDecls[fn] = n
				s.Funcs[fn] = &FuncSummary{Decl: n, Fn: fn, MayAcquire: make(map[int]bool)}
				if n.Doc != nil {
					for _, c := range n.Doc.List {
						if d, ok := analysis.ParseDirective(c); ok {
							switch d.Verb {
							case "blocks":
								s.blocksAnn[fn] = true
							case "wal-append":
								s.appendsAnn[fn] = true
							}
						}
					}
				}
			}
			return true
		})
	}
}

// fieldDirectives applies field/var-level directives to the named objects.
func (s *Spec) fieldDirectives(doc, comment *ast.CommentGroup, names []*ast.Ident, owner *ast.StructType) {
	var dirs []analysis.Directive
	for _, cg := range []*ast.CommentGroup{doc, comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d, ok := analysis.ParseDirective(c); ok {
				dirs = append(dirs, d)
			}
		}
	}
	if len(dirs) == 0 {
		return
	}
	for _, name := range names {
		v, _ := s.info.Defs[name].(*types.Var)
		if v == nil {
			continue
		}
		for _, d := range dirs {
			switch d.Verb {
			case "lock-level":
				parts := strings.Fields(d.Args)
				if len(parts) == 0 {
					s.reportedBugs = append(s.reportedBugs, analysis.Diagnostic{
						Pos: d.Pos, Check: "lockspec", Message: "//dynlint:lock-level needs a numeric level"})
					continue
				}
				level, err := strconv.Atoi(parts[0])
				if err != nil {
					s.reportedBugs = append(s.reportedBugs, analysis.Diagnostic{
						Pos: d.Pos, Check: "lockspec", Message: "//dynlint:lock-level: bad level " + strconv.Quote(parts[0])})
					continue
				}
				info := &LockInfo{Field: v, Level: level}
				for _, attr := range parts[1:] {
					switch attr {
					case "may-block":
						info.MayBlock = true
					case "indexed":
						info.Indexed = true
					default:
						s.reportedBugs = append(s.reportedBugs, analysis.Diagnostic{
							Pos: d.Pos, Check: "lockspec", Message: "//dynlint:lock-level: unknown attribute " + strconv.Quote(attr)})
					}
				}
				if owner != nil {
					if t, ok := s.info.Types[owner]; ok {
						info.Owner = t.Type
					}
				}
				s.Locks[v] = info
			case "visibility":
				s.Visibility[v] = true
			case "staged-only":
				s.StagedOnly[v] = true
			case "staged-delta":
				s.StagedDelta[v] = true
			}
		}
	}
}

// LockOf resolves an expression to the annotated mutex it denotes, if any:
// a selector to an annotated field (through any chain of selectors and
// index expressions) or a plain identifier of an annotated variable.
// indexedConst is the constant index of the innermost index expression
// (-1 when absent or non-constant).
func (s *Spec) LockOf(expr ast.Expr) (info *LockInfo, indexedConst int64) {
	indexedConst = -1
	expr = ast.Unparen(expr)
	var obj types.Object
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		obj = s.info.Uses[e.Sel]
		if idx, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
			if tv, ok := s.info.Types[idx.Index]; ok && tv.Value != nil {
				if v, ok := constInt(tv.Value.ExactString()); ok {
					indexedConst = v
				}
			}
		}
	case *ast.Ident:
		obj = s.info.Uses[e]
		if obj == nil {
			obj = s.info.Defs[e]
		}
	default:
		return nil, -1
	}
	v, _ := obj.(*types.Var)
	if v == nil {
		return nil, -1
	}
	if li, ok := s.Locks[v]; ok {
		return li, indexedConst
	}
	return nil, -1
}

func constInt(s string) (int64, bool) {
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil
}

// calleeOf resolves a call expression's target to its declaration-level
// *types.Func (generic origin, so facts and summaries match).
func (s *Spec) calleeOf(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = s.info.Uses[fun.Sel]
		}
	case *ast.Ident:
		obj = s.info.Uses[fun]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = s.info.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// CalleeBlockSafe returns the locks for which fn's blocking is safe (see
// FuncSummary.BlockSafe); nil for cross-package or unknown callees, whose
// facts are deliberately coarse.
func (s *Spec) CalleeBlockSafe(fn *types.Func) map[*LockInfo]bool {
	if sum, ok := s.Funcs[fn]; ok {
		return sum.BlockSafe
	}
	return nil
}

// CalleeAcquireSafe returns the locks for which fn's acquisition of level
// is safe; nil for cross-package callees.
func (s *Spec) CalleeAcquireSafe(fn *types.Func, level int) map[*LockInfo]bool {
	if sum, ok := s.Funcs[fn]; ok {
		return sum.AcquireSafe[level]
	}
	return nil
}

// CalleeMayAcquire returns the levels a call may acquire with a blocking
// lock, consulting local summaries then cross-package facts.
func (s *Spec) CalleeMayAcquire(fn *types.Func) []int {
	if sum, ok := s.Funcs[fn]; ok {
		out := make([]int, 0, len(sum.MayAcquire))
		for l := range sum.MayAcquire {
			out = append(out, l)
		}
		return out
	}
	if v, ok := s.facts.Get(fn, factMayAcquire); ok {
		return v.([]int)
	}
	return nil
}

// CalleeMayBlock reports whether calling fn may block: the //dynlint:blocks
// annotation, a known standard-library blocker, or a transitive summary.
func (s *Spec) CalleeMayBlock(fn *types.Func) bool {
	if s.blocksAnn[fn] {
		return true
	}
	if sum, ok := s.Funcs[fn]; ok {
		return sum.MayBlock
	}
	if v, ok := s.facts.Get(fn, factBlocks); ok {
		return v.(bool)
	}
	return knownBlocking(fn)
}

// AppendAnnotated reports whether fn itself carries //dynlint:wal-append —
// i.e. it IS the append, as opposed to merely reaching one. logvisible
// treats such a function's own body as covered from entry.
func (s *Spec) AppendAnnotated(fn *types.Func) bool { return s.appendsAnn[fn] }

// CalleeMayAppend reports whether calling fn reaches a WAL append.
func (s *Spec) CalleeMayAppend(fn *types.Func) bool {
	if s.appendsAnn[fn] {
		return true
	}
	if sum, ok := s.Funcs[fn]; ok {
		return sum.MayAppend
	}
	if v, ok := s.facts.Get(fn, factAppends); ok {
		return v.(bool)
	}
	return false
}

// knownBlocking recognizes standard-library operations that park the
// calling goroutine. sync.Cond.Wait is deliberately absent: it releases
// its associated lock by construction (see LOCKING.md).
func knownBlocking(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		}
	}
	switch pkg.Path() {
	case "time":
		return fn.Name() == "Sleep" && recv == ""
	case "sync":
		return recv == "WaitGroup" && fn.Name() == "Wait"
	case "os":
		return recv == "File" && fn.Name() == "Sync"
	case "os/exec":
		return recv == "Cmd" && (fn.Name() == "Wait" || fn.Name() == "Run" ||
			fn.Name() == "Output" || fn.Name() == "CombinedOutput")
	}
	return false
}
