package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"dyndbscan"
	"dyndbscan/internal/core"
	"dyndbscan/internal/geom"
	"dyndbscan/internal/wal"
)

// streamHash fingerprints a generated op stream: same seed, same hash.
type streamHash struct {
	h   hash.Hash
	buf [8]byte
	ops int
}

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

func (s *streamHash) int(v int64) {
	binary.LittleEndian.PutUint64(s.buf[:], uint64(v))
	s.h.Write(s.buf[:])
}

func (s *streamHash) point(p geom.Point) {
	for _, c := range p {
		s.int(int64(math.Float64bits(c)))
	}
}

// op opens a new op in the hash: kind plus its operands.
func (s *streamHash) op(kind byte, operands ...int64) {
	s.ops++
	s.h.Write([]byte{kind})
	for _, v := range operands {
		s.int(v)
	}
}

func (s *streamHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)) }

// ackOp is one acknowledged operation, in engine handles.
type ackOp struct {
	Kind byte // 'i' insert, 'd' delete, 'q' C-group-by query
	Pt   geom.Point
	ID   dyndbscan.PointID   // insert: the handle the engine minted; delete: the target
	Q    []dyndbscan.PointID // query handles
}

// ackLog is the stream the engine acknowledged, in acknowledgement order,
// cut into the commits (engine calls) that carried it. It drives the direct
// core and wal replays of a traced run and the equivalence checks.
type ackLog struct {
	ops    []ackOp
	starts []int   // commit i is ops[starts[i]:starts[i+1]]
	opIDs  []int64 // op id of commit i, shared with its engine span
}

func (l *ackLog) commit(opID int64, ops ...ackOp) {
	l.starts = append(l.starts, len(l.ops))
	l.opIDs = append(l.opIDs, opID)
	l.ops = append(l.ops, ops...)
}

func (l *ackLog) commits() int { return len(l.starts) }

func (l *ackLog) batch(i int) []ackOp {
	end := len(l.ops)
	if i+1 < len(l.starts) {
		end = l.starts[i+1]
	}
	return l.ops[l.starts[i]:end]
}

// coreReplay is the acknowledged stream replayed into core.NewFullyDynamic.
type coreReplay struct {
	f      *core.FullyDynamic
	idmap  map[dyndbscan.PointID]core.PointID // engine handle → core handle
	ins    samples
	del    samples
	qry    samples
	busy   time.Duration
	events [6]int // by core.EventKind
}

// replayCore feeds log, op by op in acknowledgement order, into a bare
// internal/core fully-dynamic clusterer, timing every call of the timed
// phase (set-up commits carry op id -1). Spans carry the op id of the
// engine commit that acknowledged the op.
func replayCore(cfg core.Config, log *ackLog, tr *tracer) (*coreReplay, error) {
	f, err := core.NewFullyDynamic(cfg)
	if err != nil {
		return nil, err
	}
	cr := &coreReplay{f: f, idmap: make(map[dyndbscan.PointID]core.PointID, len(log.ops))}
	f.SetEventFunc(func(ev core.Event) { cr.events[ev.Kind]++ })
	phase := tr.begin("replay.core")
	defer tr.end(phase)
	var q []core.PointID
	for c := 0; c < log.commits(); c++ {
		opID := log.opIDs[c]
		for _, op := range log.batch(c) {
			t0 := time.Now()
			var name string
			switch op.Kind {
			case 'i':
				name = "core.insert"
				id, err := f.Insert(op.Pt)
				if err != nil {
					return nil, fmt.Errorf("core replay insert: %w", err)
				}
				cr.idmap[op.ID] = id
			case 'd':
				name = "core.delete"
				if err := f.Delete(cr.idmap[op.ID]); err != nil {
					return nil, fmt.Errorf("core replay delete of handle %d: %w", op.ID, err)
				}
				delete(cr.idmap, op.ID)
			case 'q':
				name = "core.groupby"
				q = q[:0]
				for _, id := range op.Q {
					q = append(q, cr.idmap[id])
				}
				if _, err := f.GroupBy(q); err != nil {
					return nil, fmt.Errorf("core replay query: %w", err)
				}
			}
			t1 := time.Now()
			if opID < 0 {
				continue // set-up: applied, not measured
			}
			d := t1.Sub(t0)
			cr.busy += d
			switch op.Kind {
			case 'i':
				cr.ins.add(d)
			case 'd':
				cr.del.add(d)
			case 'q':
				cr.qry.add(d)
			}
			tr.record(name, t0, t1, phase, opID)
		}
	}
	return cr, nil
}

// groupAll returns the replay's full clustering in engine handles.
func (cr *coreReplay) groupAll() (core.Result, error) {
	back := make(map[core.PointID]dyndbscan.PointID, len(cr.idmap))
	for e, c := range cr.idmap {
		back[c] = e
	}
	res, err := cr.f.GroupBy(cr.f.IDs())
	if err != nil {
		return res, err
	}
	return remap(res, func(id core.PointID) dyndbscan.PointID { return back[id] }), nil
}

// report records the core layer's per-layer metrics.
func (cr *coreReplay) report(r *runner) {
	st := cr.f.Stats()
	_, edges, comps := cr.f.GraphStats()
	r.layer("core.insert_us", cr.ins.mean()/us, "us", len(cr.ins))
	r.layer("core.delete_us", cr.del.mean()/us, "us", len(cr.del))
	r.layer("core.delete_p99_us", cr.del.quantile(0.99)/us, "us", len(cr.del))
	if len(cr.qry) > 0 {
		r.layer("core.groupby_us", cr.qry.mean()/us, "us", len(cr.qry))
	} else {
		r.absent("core.groupby_us")
	}
	r.layer("core.busy_s", cr.busy.Seconds(), "s", len(cr.ins)+len(cr.del)+len(cr.qry))
	r.layer("core.cores", float64(st.Cores), "count", 0)
	r.layer("core.core_cells", float64(st.CoreCells), "count", 0)
	r.layer("core.graph_edges", float64(edges), "count", 0)
	r.layer("core.components", float64(comps), "count", 0)
	r.layer("core.became_core", float64(cr.events[core.EventPointBecameCore]), "count", 0)
	r.layer("core.became_noise", float64(cr.events[core.EventPointBecameNoise]), "count", 0)
	r.layer("core.merged", float64(cr.events[core.EventClusterMerged]), "count", 0)
	r.layer("core.split", float64(cr.events[core.EventClusterSplit]), "count", 0)
}

// replayWAL appends log's commits, with the same batch boundaries, to a
// fresh internal/wal log in dir, syncing after every syncEvery appends and
// at the end. It records the wal layer's per-layer timings.
func replayWAL(r *runner, dir string, log *ackLog, syncEvery int) error {
	l, err := wal.Open(dir, wal.Options{MustCreate: true, Meta: []byte("perfbench")})
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	phase := r.tr.begin("replay.wal")
	defer r.tr.end(phase)
	var app, syn samples
	var ops []wal.Op
	doSync := func(opID int64) error {
		t0 := time.Now()
		err := l.Sync()
		t1 := time.Now()
		syn.add(t1.Sub(t0))
		r.tr.record("wal.sync", t0, t1, phase, opID)
		return err
	}
	records := 0
	for c := 0; c < log.commits(); c++ {
		ops = ops[:0]
		for _, op := range log.batch(c) {
			switch op.Kind {
			case 'i':
				ops = append(ops, wal.Op{Kind: wal.OpInsert, Coord: op.Pt})
			case 'd':
				ops = append(ops, wal.Op{Kind: wal.OpDelete, ID: op.ID})
			}
		}
		if len(ops) == 0 {
			continue
		}
		t0 := time.Now()
		_, err := l.Append(ops)
		t1 := time.Now()
		if err != nil {
			l.Close()
			return fmt.Errorf("wal replay append: %w", err)
		}
		app.add(t1.Sub(t0))
		r.tr.record("wal.append", t0, t1, phase, log.opIDs[c])
		records++
		if records%syncEvery == 0 {
			if err := doSync(log.opIDs[c]); err != nil {
				l.Close()
				return fmt.Errorf("wal replay sync: %w", err)
			}
		}
	}
	if err := doSync(-1); err != nil {
		l.Close()
		return fmt.Errorf("wal replay sync: %w", err)
	}
	if err := l.Close(); err != nil {
		return fmt.Errorf("wal replay close: %w", err)
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.layer("wal.append_us", app.mean()/us, "us", len(app))
	r.layer("wal.sync_us", syn.mean()/us, "us", len(syn))
	if records > 0 {
		r.layer("wal.bytes_per_record", float64(bytes)/float64(records), "B", records)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// remap rewrites a result's handles through f and normalizes it.
func remap(res core.Result, f func(core.PointID) core.PointID) core.Result {
	out := core.Result{Groups: make([][]core.PointID, len(res.Groups))}
	for i, g := range res.Groups {
		out.Groups[i] = make([]core.PointID, len(g))
		for j, id := range g {
			out.Groups[i][j] = f(id)
		}
	}
	for _, id := range res.Noise {
		out.Noise = append(out.Noise, f(id))
	}
	out.Normalize()
	return out
}

// samePartition compares two clusterings as partitions: the same groups
// (with border points in several groups) and the same noise. Cluster ids
// play no part.
func samePartition(a, b core.Result) error {
	a, b = remap(a, identity), remap(b, identity)
	if len(a.Groups) != len(b.Groups) {
		return fmt.Errorf("%d clusters against %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if !reflect.DeepEqual(a.Groups[i], b.Groups[i]) {
			return fmt.Errorf("cluster %d differs: %d members against %d", i, len(a.Groups[i]), len(b.Groups[i]))
		}
	}
	if len(a.Noise)+len(b.Noise) > 0 && !reflect.DeepEqual(a.Noise, b.Noise) {
		return fmt.Errorf("noise differs: %d points against %d", len(a.Noise), len(b.Noise))
	}
	return nil
}

func identity(id core.PointID) core.PointID { return id }
