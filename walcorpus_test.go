package dyndbscan

// Corrupted-log corpus: checked-in WAL directories under testdata/wal, each
// a copy of the same 10-insert log with one kind of damage applied. Recovery
// must truncate tail damage (a crash tears only the tail) and refuse
// mid-log damage (bit rot — silently dropping acknowledged history would be
// worse than failing). Regenerate with:
//
//	DYNDBSCAN_REGEN_WAL_CORPUS=1 go test -run TestWALCorpus
//
// FuzzWALReplay hammers the same property with arbitrary segment bytes:
// recovery may reject a log, but it must never panic or loop.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dyndbscan/internal/wal"
)

const walCorpusRoot = "testdata/wal"

// corpusPoints is the history every corpus case damages: two well-separated
// clusters of five, inserted one per WAL record.
var corpusPoints = []Point{
	{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5},
	{50, 50}, {51, 50}, {50, 51}, {51, 51}, {50.5, 50.5},
}

// Staged-delta corpus history: the warm batch heats one stripe of a hotspot
// engine (one 32-insert record), then the hot singles divert into split
// phase — each writing one OpStagedInsert record. The engine closes cleanly,
// but the reconcile folds append nothing, so the log's tail is exactly the
// staged-delta records the staged_* damage cases mutilate.
var (
	stagedCorpusWarm = func() []Point {
		pts := make([]Point, 32)
		for i := range pts {
			pts[i] = Point{float64(i%8) * 2, float64(i/8) * 2}
		}
		return pts
	}()
	stagedCorpusHot = []Point{
		{0, 30}, {6, 30}, {12, 30}, {18, 30},
		{1, 31}, {7, 31}, {13, 31}, {19, 31},
	}
)

// Checkpoint-chain corpus history: a 40-point batch (record 1) and 11 far
// singles (records 2..12), checkpointed every 4 records with a compaction
// horizon of 8 — on disk that is a base checkpoint covering record 4 plus
// delta checkpoints covering records 8 and 12. The chain_* damage cases
// mutilate the checkpoint files (remove a parent, rot a delta, plant a
// leftover) rather than the segments: recovery must compose the live chain
// exactly, refuse a chain it cannot complete, and ignore files off the chain.
var (
	chainCorpusBatch = func() []Point {
		pts := make([]Point, 40)
		for i := range pts {
			// Two well-separated 20-point clusters.
			base := Point{0, 0}
			if i >= 20 {
				base = Point{60, 60}
			}
			pts[i] = Point{base[0] + float64(i%5), base[1] + float64((i/5)%4)}
		}
		return pts
	}()
	chainCorpusSingles = func() []Point {
		pts := make([]Point, 11)
		for i := range pts {
			// Far from the batch mass and from each other: each single's delta
			// patch stays a handful of points, so the captures really are
			// deltas and never fall back to full payloads.
			pts[i] = Point{500 + float64(i)*100, 500}
		}
		return pts
	}()
)

func chainCorpusOpts(dir string) []Option {
	opts := []Option{WithEps(6), WithMinPts(3)}
	if dir != "" {
		opts = append(opts,
			WithWAL(dir, SyncAlways()),
			WithWALCheckpointEvery(4), WithWALCompactEvery(8))
	}
	return opts
}

// buildChainCorpusBase writes the chain template log into dir and returns the
// chain's checkpoint file names in seq order (base first). It fails unless
// the log really holds a base + 2 deltas — the scenario the damage cases need.
func buildChainCorpusBase(tb testing.TB, dir string) []string {
	tb.Helper()
	e, err := New(chainCorpusOpts(dir)...)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.InsertBatch(chainCorpusBatch); err != nil {
		tb.Fatal(err)
	}
	for _, pt := range chainCorpusSingles {
		if _, err := e.Insert(pt); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
	rd, err := wal.OpenReader(dir)
	if err != nil {
		tb.Fatal(err)
	}
	cs := rd.Chain()
	rd.Close()
	if cs.Deltas != 2 {
		tb.Fatalf("chain corpus base built a chain of base@%d + %d delta(s), want 2 deltas; the template lost its scenario", cs.BaseSeq, cs.Deltas)
	}
	var names []string
	for _, name := range listFlatDir(tb, dir) {
		if strings.HasSuffix(name, ".ckpt") {
			names = append(names, name)
		}
	}
	sort.Strings(names) // seq-ordered: the names are fixed-width hex
	if len(names) != 3 {
		tb.Fatalf("chain corpus base holds %d checkpoint files, want 3: %v", len(names), names)
	}
	return names
}

// stagedCorpusOpts is the staged-corpus engine shape; dir == "" builds the
// in-memory reference (no WAL, no hotspot — staged and ordinary replay must
// converge on the same clustering and handles).
func stagedCorpusOpts(dir string) []Option {
	opts := []Option{
		WithEps(6), WithMinPts(3),
		WithAlgorithm(AlgoFullyDynamic),
		WithShards(2), WithShardStripe(4),
	}
	if dir != "" {
		opts = append(opts,
			WithHotspot(crashHotspotPolicy()),
			WithWAL(dir, SyncAlways()), WithWALCheckpointEvery(0))
	}
	return opts
}

// buildStagedCorpusBase writes the staged-delta template log into dir and
// fails unless split-phase staging actually produced the tail records.
func buildStagedCorpusBase(tb testing.TB, dir string) {
	tb.Helper()
	e, err := New(stagedCorpusOpts(dir)...)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.InsertBatch(stagedCorpusWarm); err != nil {
		tb.Fatal(err)
	}
	for _, pt := range stagedCorpusHot {
		if _, err := e.Insert(pt); err != nil {
			tb.Fatal(err)
		}
	}
	if got := e.StagedOps(); got != int64(len(stagedCorpusHot)) {
		tb.Fatalf("staged corpus base staged %d of %d hot inserts; the template lost its scenario", got, len(stagedCorpusHot))
	}
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
	// The tail really is staged-delta records: the fold appended nothing.
	rd, err := wal.OpenReader(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer rd.Close()
	records, stagedTail := 0, 0
	for {
		_, wops, err := rd.Next()
		if errors.Is(err, wal.ErrCaughtUp) {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		records++
		if len(wops) == 1 && wops[0].Kind == wal.OpStagedInsert {
			stagedTail++
		} else {
			stagedTail = 0
		}
	}
	if records != 1+len(stagedCorpusHot) || stagedTail != len(stagedCorpusHot) {
		tb.Fatalf("staged corpus base holds %d records with a %d-record staged tail, want %d/%d",
			records, stagedTail, 1+len(stagedCorpusHot), len(stagedCorpusHot))
	}
}

var walCorpusCases = []struct {
	name      string
	staged    bool // the staged-delta (hotspot) corpus base
	chain     bool // the checkpoint-chain corpus base
	wantLen   int  // points after recovery (damage at the tail truncates)
	wantError bool // mid-log damage must refuse to open
}{
	{"valid", false, false, 10, false},
	{"torn_record", false, false, 9, false},      // last record cut mid-frame
	{"truncated_header", false, false, 9, false}, // segment ends inside a frame header
	{"bad_crc_tail", false, false, 9, false},     // checksum damage on the final record
	{"bad_crc_mid", false, false, 0, true},       // checksum damage with good records after it
	{"staged_valid", true, false, 40, false},     // warm batch + 8 staged-delta records
	{"staged_torn_record", true, false, 39, false},
	{"staged_bad_crc_tail", true, false, 39, false},
	{"staged_bad_crc_mid", true, false, 0, true}, // damaged staged record mid-log: refuse

	// Checkpoint-chain damage: the segments stay pristine; the chain files
	// take the hit. Valid shapes compose base + deltas; a chain recovery
	// cannot complete is refused (the trimmed log can no longer vouch for
	// the history an older base would roll back to).
	{"chain_valid", false, true, 51, false},    // base@4 + deltas @8, @12 compose
	{"chain_leftover", false, true, 51, false}, // off-chain file ignored
	{"chain_missing_parent", false, true, 0, true},
	{"chain_bad_delta", false, true, 0, true}, // mid-chain delta rotted
	{"chain_bad_tip", false, true, 0, true},   // newest (tip) delta rotted
}

func TestWALCorpus(t *testing.T) {
	if os.Getenv("DYNDBSCAN_REGEN_WAL_CORPUS") == "1" {
		regenWALCorpus(t)
	}
	for _, tc := range walCorpusCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			src := filepath.Join(walCorpusRoot, tc.name)
			if _, err := os.Stat(src); err != nil {
				t.Fatalf("corpus case missing (regenerate with DYNDBSCAN_REGEN_WAL_CORPUS=1): %v", err)
			}
			// Recovery mutates the directory (torn-tail truncation, then
			// appends); work on a copy so the corpus stays pristine.
			dir := t.TempDir()
			copyFlatDir(t, src, dir)
			e, err := Open(dir)
			if tc.wantError {
				if err == nil {
					e.Close()
					t.Fatal("mid-log corruption must refuse to open")
				}
				if !errors.Is(err, wal.ErrCorrupt) {
					t.Fatalf("want ErrCorrupt, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovering %s: %v", tc.name, err)
			}
			defer e.Close()
			if e.Len() != tc.wantLen {
				t.Fatalf("recovered %d points, want %d", e.Len(), tc.wantLen)
			}
			// The surviving prefix must match a fresh engine fed the same
			// inserts — damage costs exactly the torn suffix, nothing else.
			var ref *Engine
			switch {
			case tc.staged:
				ref, err = New(stagedCorpusOpts("")...)
			case tc.chain:
				ref, err = New(chainCorpusOpts("")...)
			default:
				ref, err = New(WithEps(6), WithMinPts(3))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if tc.chain {
				// Chain damage never truncates records — the segments are
				// intact, so every valid case recovers the full history.
				if _, err := ref.InsertBatch(chainCorpusBatch); err != nil {
					t.Fatal(err)
				}
				for _, pt := range chainCorpusSingles {
					if _, err := ref.Insert(pt); err != nil {
						t.Fatal(err)
					}
				}
			} else if tc.staged {
				// Mirror the base history's op shape: the warm batch as one
				// commit, then the surviving prefix of the staged singles.
				if _, err := ref.InsertBatch(stagedCorpusWarm); err != nil {
					t.Fatal(err)
				}
				for _, pt := range stagedCorpusHot[:tc.wantLen-len(stagedCorpusWarm)] {
					if _, err := ref.Insert(pt); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				for _, pt := range corpusPoints[:tc.wantLen] {
					if _, err := ref.Insert(pt); err != nil {
						t.Fatal(err)
					}
				}
			}
			requireSameClustering(t, ref.Snapshot(), e.Snapshot(), tc.name)
			// Recovery truncated the damage: the log must accept new commits.
			if _, err := e.Insert(Point{25, 25}); err != nil {
				t.Fatalf("insert after recovery: %v", err)
			}
		})
	}
}

// regenWALCorpus rebuilds testdata/wal deterministically: one pristine log,
// then one byte-level mutation per case.
func regenWALCorpus(t *testing.T) {
	t.Helper()
	base := t.TempDir()
	e, err := New(WithEps(6), WithMinPts(3),
		WithWAL(base, SyncAlways()), WithWALCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range corpusPoints {
		if _, err := e.Insert(pt); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	segName, seg, frames := corpusSegment(t, base, len(corpusPoints))
	last := frames[len(frames)-1]

	mutate := func(name string, f func([]byte) []byte) {
		corpusMutate(t, base, segName, seg, name, f)
	}
	mutate("valid", nil)
	mutate("torn_record", func(b []byte) []byte {
		return b[:len(b)-5] // the crash landed mid-way through the last frame
	})
	mutate("truncated_header", func(b []byte) []byte {
		return b[:last+4] // only half the length|crc header made it to disk
	})
	mutate("bad_crc_tail", func(b []byte) []byte {
		b[last+10] ^= 0xFF // flip a body byte of the final record
		return b
	})
	mutate("bad_crc_mid", func(b []byte) []byte {
		b[frames[2]+10] ^= 0xFF // damage record 3; records 4..10 stay valid
		return b
	})

	// The staged-delta family: the same damage shapes, applied to a log whose
	// tail records are OpStagedInsert.
	sbase := t.TempDir()
	buildStagedCorpusBase(t, sbase)
	sname, sseg, sframes := corpusSegment(t, sbase, 1+len(stagedCorpusHot))
	slast := sframes[len(sframes)-1]
	smutate := func(name string, f func([]byte) []byte) {
		corpusMutate(t, sbase, sname, sseg, name, f)
	}
	smutate("staged_valid", nil)
	smutate("staged_torn_record", func(b []byte) []byte {
		return b[:len(b)-5] // the crash tore the newest staged-delta record
	})
	smutate("staged_bad_crc_tail", func(b []byte) []byte {
		b[slast+10] ^= 0xFF // flip a body byte of the final staged record
		return b
	})
	smutate("staged_bad_crc_mid", func(b []byte) []byte {
		// Damage the third staged record (record 4 after the warm batch);
		// valid staged records follow, so recovery must refuse.
		b[sframes[3]+10] ^= 0xFF
		return b
	})

	// The checkpoint-chain family: pristine segments, damage aimed at the
	// chain's checkpoint files. ckpts is [base, delta, delta] in seq order.
	cbase := t.TempDir()
	ckpts := buildChainCorpusBase(t, cbase)
	cmutate := func(name string, f func(dir string)) {
		dst := filepath.Join(walCorpusRoot, name)
		if err := os.RemoveAll(dst); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		copyFlatDir(t, cbase, dst)
		if f != nil {
			f(dst)
		}
	}
	rot := func(dir, name string) {
		// Flip a payload byte: the file's framing CRC no longer matches.
		path := filepath.Join(dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[10] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmutate("chain_valid", nil)
	cmutate("chain_leftover", func(dir string) {
		// A failed cleanup's leftover: a copy of the base under a seq name
		// that is on no parent link. It must be ignored, not composed.
		b, err := os.ReadFile(filepath.Join(dir, ckpts[0]))
		if err != nil {
			t.Fatal(err)
		}
		leftover := fmt.Sprintf("ckpt-%016x.ckpt", 5)
		if err := os.WriteFile(filepath.Join(dir, leftover), b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	cmutate("chain_missing_parent", func(dir string) {
		if err := os.Remove(filepath.Join(dir, ckpts[0])); err != nil {
			t.Fatal(err)
		}
	})
	cmutate("chain_bad_delta", func(dir string) { rot(dir, ckpts[1]) })
	cmutate("chain_bad_tip", func(dir string) { rot(dir, ckpts[2]) })

	t.Logf("regenerated %s (%d cases, segments %s/%s, %d+%d records, chain %v)",
		walCorpusRoot, len(walCorpusCases), segName, sname, len(frames), len(sframes), ckpts)
}

// corpusSegment finds the base log's single segment and walks its frames.
func corpusSegment(t *testing.T, base string, wantRecords int) (segName string, seg []byte, frames []int) {
	t.Helper()
	for _, name := range listFlatDir(t, base) {
		if strings.HasSuffix(name, ".seg") {
			if segName != "" {
				t.Fatalf("corpus base rotated segments (%s and %s); raise the segment size", segName, name)
			}
			segName = name
		}
	}
	if segName == "" {
		t.Fatal("corpus base has no segment")
	}
	seg, err := os.ReadFile(filepath.Join(base, segName))
	if err != nil {
		t.Fatal(err)
	}
	frames = frameOffsets(t, seg)
	if len(frames) != wantRecords {
		t.Fatalf("corpus base holds %d records, want %d", len(frames), wantRecords)
	}
	return segName, seg, frames
}

// corpusMutate writes one corpus case: a copy of the base log with the
// segment replaced by f's mutation (nil f keeps it pristine).
func corpusMutate(t *testing.T, base, segName string, seg []byte, name string, f func([]byte) []byte) {
	t.Helper()
	dst := filepath.Join(walCorpusRoot, name)
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	copyFlatDir(t, base, dst)
	if f != nil {
		b := append([]byte(nil), seg...)
		if err := os.WriteFile(filepath.Join(dst, segName), f(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// frameOffsets walks the segment's length-prefixed frames.
func frameOffsets(t *testing.T, seg []byte) []int {
	t.Helper()
	var offs []int
	off := 0
	for off < len(seg) {
		if off+8 > len(seg) {
			t.Fatalf("trailing bytes at offset %d", off)
		}
		offs = append(offs, off)
		off += 8 + int(binary.LittleEndian.Uint32(seg[off:off+4]))
	}
	return offs
}

func listFlatDir(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		if !ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	return names
}

func copyFlatDir(t testing.TB, src, dst string) {
	t.Helper()
	for _, name := range listFlatDir(t, src) {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWALReplay: recovery over an arbitrary log directory must reject or
// truncate, never panic. Three templates seed the fuzzer: the pristine
// single-backend corpus log (mode 0), the sharded hotspot log whose tail
// records are OpStagedInsert (mode 1) — fuzz bytes replace the segment — and
// the checkpoint-chain log (mode 2), where fuzz bytes become the chain tip's
// *payload*, re-framed with a valid CRC so arbitrary bytes reach the chain
// header decode and the engine's delta-compose paths instead of dying at the
// file checksum. Modes 3 and 4 decode the fuzz bytes as one op batch (bytes
// that do not decode are skipped) and append it as a CRC-valid record to the
// staged hotspot log (mode 3) or to a warm AlgoSemiDynamic hotspot log
// (mode 4), so every record shape the codec admits reaches replay.
func FuzzWALReplay(f *testing.F) {
	tmpl := f.TempDir()
	e, err := New(WithEps(6), WithMinPts(3),
		WithWAL(tmpl, SyncAlways()), WithWALCheckpointEvery(0))
	if err != nil {
		f.Fatal(err)
	}
	for _, pt := range corpusPoints {
		if _, err := e.Insert(pt); err != nil {
			f.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		f.Fatal(err)
	}
	plainName, plainSeg, plainMeta := fuzzTemplate(f, tmpl)

	stmpl := f.TempDir()
	buildStagedCorpusBase(f, stmpl)
	stagedName, stagedSeg, stagedMeta := fuzzTemplate(f, stmpl)

	ctmpl := f.TempDir()
	chainCkpts := buildChainCorpusBase(f, ctmpl)
	tipName := chainCkpts[len(chainCkpts)-1]
	chainFiles := make(map[string][]byte)
	for _, name := range listFlatDir(f, ctmpl) {
		b, err := os.ReadFile(filepath.Join(ctmpl, name))
		if err != nil {
			f.Fatal(err)
		}
		chainFiles[name] = b
	}
	tipPayload := chainFiles[tipName][frameHeaderLenTest:]

	semiTmpl := f.TempDir()
	writeWarmStagedLog(f, semiTmpl, true)

	f.Add(uint8(0), plainSeg)
	f.Add(uint8(0), plainSeg[:len(plainSeg)-3])
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), stagedSeg)
	f.Add(uint8(1), stagedSeg[:len(stagedSeg)-3])
	f.Add(uint8(1), plainSeg) // staged-shaped meta over non-staged records
	f.Add(uint8(2), tipPayload)
	f.Add(uint8(2), tipPayload[:len(tipPayload)-3])
	f.Add(uint8(2), []byte{})
	f.Add(uint8(2), tipPayload[1:]) // delta header stripped: bad kind byte
	for _, tc := range malformedDataRecords {
		mode := uint8(3)
		if tc.semi {
			mode = 4
		}
		f.Add(mode, wal.AppendOps(nil, tc.rec))
	}
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		dir := t.TempDir()
		switch mode % 5 {
		case 3, 4:
			rec, err := wal.DecodeOps(data)
			if err != nil {
				t.Skip("bytes do not decode as an op batch")
			}
			tmpl := stmpl
			if mode%5 == 4 {
				tmpl = semiTmpl
			}
			copyFlatDir(t, tmpl, dir)
			appendWALRecord(t, dir, rec)
		case 2:
			// Pristine chain log, arbitrary bytes as the tip checkpoint's
			// framed payload (chain header + engine payload).
			for name, b := range chainFiles {
				if name == tipName {
					b = frameFuzzPayload(data)
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		default:
			segName, meta := plainName, plainMeta
			if mode%5 == 1 {
				segName, meta = stagedName, stagedMeta
			}
			if err := os.WriteFile(filepath.Join(dir, "wal.meta"), meta, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segName), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		e, err := Open(dir)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		e.Snapshot()
		e.Close()
	})
}

// frameHeaderLenTest mirrors the wal package's length|crc file frame header.
const frameHeaderLenTest = 8

// frameFuzzPayload wraps payload in a valid length|crc file frame, so the
// fuzzer's bytes survive the framing checksum and reach the decoders behind
// it.
func frameFuzzPayload(payload []byte) []byte {
	buf := make([]byte, frameHeaderLenTest, frameHeaderLenTest+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(buf, payload...)
}

// fuzzTemplate reads a template log's single segment and meta file.
func fuzzTemplate(f *testing.F, tmpl string) (segName string, seg, meta []byte) {
	for _, ent := range mustReadDir(f, tmpl) {
		b, err := os.ReadFile(filepath.Join(tmpl, ent))
		if err != nil {
			f.Fatal(err)
		}
		if strings.HasSuffix(ent, ".seg") {
			segName, seg = ent, b
		} else if ent == "wal.meta" {
			meta = b
		}
	}
	if segName == "" || meta == nil {
		f.Fatal("template log incomplete")
	}
	return segName, seg, meta
}

func mustReadDir(f *testing.F, dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		names = append(names, ent.Name())
	}
	return names
}

// TestExplicitInsertRefusesLiveHandle appends one explicit-handle record to a
// clean staged-corpus log. A record that names a live handle, or one handle
// twice, must fail recovery: applying it would store a second copy set under
// the handle, and deleting the handle later would orphan the first. A record
// naming a fresh handle recovers, and the route audit (part of SeamAudit)
// confirms every backend copy is listed by exactly one route.
func TestExplicitInsertRefusesLiveHandle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(ids []PointID) []wal.Op
		refuse bool
	}{
		{"LiveHandle", func(ids []PointID) []wal.Op {
			return []wal.Op{{Kind: wal.OpInsertAt, ID: int64(ids[0]), Coord: []float64{1000, 1000}}}
		}, true},
		{"RepeatInRecord", func([]PointID) []wal.Op {
			return []wal.Op{
				{Kind: wal.OpInsertAt, ID: 1000, Coord: []float64{1000, 1000}},
				{Kind: wal.OpInsertAt, ID: 1000, Coord: []float64{1001, 1000}},
			}
		}, true},
		{"FreshHandle", func([]PointID) []wal.Op {
			return []wal.Op{{Kind: wal.OpInsertAt, ID: 1000, Coord: []float64{1000, 1000}}}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := New(stagedCorpusOpts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := e.InsertBatch(stagedCorpusWarm)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			log, err := wal.Open(dir, wal.Options{MustExist: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(tc.record(ids)); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := Open(dir)
			if tc.refuse {
				if err == nil {
					r.Close()
					t.Fatal("recovery accepted an explicit insert at a live or repeated handle")
				}
				if !errors.Is(err, ErrDuplicateID) {
					t.Fatalf("recovery error = %v, want ErrDuplicateID", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if n := r.Len(); n != len(stagedCorpusWarm)+1 {
				t.Fatalf("Len = %d, want %d", n, len(stagedCorpusWarm)+1)
			}
			if err := r.SeamAudit(); err != nil {
				t.Fatal(err)
			}
			for _, id := range []PointID{ids[0], 1000} {
				if err := r.Delete(id); err != nil {
					t.Fatal(err)
				}
				if err := r.SeamAudit(); err != nil {
					t.Fatalf("after deleting %d: %v", id, err)
				}
			}
		})
	}
}

// malformedDataRecords are CRC-valid data records that no writer produces,
// each appended to a warm staged-corpus log (writeWarmStagedLog), whose first
// live handle is 0. Recovery must refuse each one whole: with the sentinel
// want when one exists, else with an error containing msg.
var malformedDataRecords = []struct {
	name string
	semi bool // the log's engine runs AlgoSemiDynamic
	rec  []wal.Op
	want error
	msg  string
}{
	{"explicit duplicate delete", false, []wal.Op{
		{Kind: wal.OpInsertAt, ID: 1000, Coord: []float64{1000, 1000}},
		{Kind: wal.OpDelete, ID: 0},
		{Kind: wal.OpDelete, ID: 0},
	}, ErrDuplicateID, ""},
	{"explicit semi-dynamic delete", true, []wal.Op{
		{Kind: wal.OpInsertAt, ID: 1000, Coord: []float64{1000, 1000}},
		{Kind: wal.OpDelete, ID: 0},
	}, ErrDeletesUnsupported, ""},
	{"mixed plain and explicit inserts", false, []wal.Op{
		{Kind: wal.OpInsert, Coord: []float64{1000, 1000}},
		{Kind: wal.OpInsertAt, ID: 1000, Coord: []float64{1001, 1000}},
	}, nil, "mixes plain and explicit-handle inserts"},
}

// writeWarmStagedLog writes a clean staged-corpus log into dir: the hotspot
// engine of stagedCorpusOpts (AlgoSemiDynamic when semi) after one batch of
// stagedCorpusWarm, closed.
func writeWarmStagedLog(tb testing.TB, dir string, semi bool) {
	tb.Helper()
	opts := stagedCorpusOpts(dir)
	if semi {
		opts = append(opts, WithAlgorithm(AlgoSemiDynamic))
	}
	e, err := New(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	ids, err := e.InsertBatch(stagedCorpusWarm)
	if err != nil {
		tb.Fatal(err)
	}
	if ids[0] != 0 {
		tb.Fatalf("warm log's first handle is %d, want 0", ids[0])
	}
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
}

// appendWALRecord appends one record to the closed log in dir.
func appendWALRecord(tb testing.TB, dir string, rec []wal.Op) {
	tb.Helper()
	log, err := wal.Open(dir, wal.Options{MustExist: true})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := log.Append(rec); err != nil {
		tb.Fatal(err)
	}
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestMalformedDataRecordRefused appends one malformedDataRecords entry to a
// warm staged-corpus log. Open, OpenReplica and a replica already tailing
// the log must each refuse it as an error — never apply it, never panic —
// exactly as Apply refuses the same ops in a live batch; the tailing replica
// keeps serving the state before the record.
func TestMalformedDataRecordRefused(t *testing.T) {
	for _, tc := range malformedDataRecords {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeWarmStagedLog(t, dir, tc.semi)
			tailing, err := OpenReplica(dir, WithReplicaPoll(time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer tailing.Close()
			appendWALRecord(t, dir, tc.rec)

			check := func(what string, err error) {
				t.Helper()
				switch {
				case err == nil:
					t.Fatalf("%s accepted the malformed record", what)
				case tc.want != nil && !errors.Is(err, tc.want):
					t.Fatalf("%s: error = %v, want %v", what, err, tc.want)
				case !strings.Contains(err.Error(), tc.msg):
					t.Fatalf("%s: error %q does not contain %q", what, err, tc.msg)
				}
			}
			r, err := Open(dir)
			if err == nil {
				r.Close()
			}
			check("Open", err)
			rep, err := OpenReplica(dir)
			if err == nil {
				rep.Close()
			}
			check("OpenReplica", err)
			deadline := time.Now().Add(10 * time.Second)
			for tailing.Err() == nil {
				if time.Now().After(deadline) {
					t.Fatalf("tailing replica still healthy at seq %d after the malformed record", tailing.AppliedSeq())
				}
				time.Sleep(time.Millisecond)
			}
			check("Replica.Err", tailing.Err())
			if n := tailing.Len(); n != len(stagedCorpusWarm) {
				t.Fatalf("tailing replica serves %d points after refusing the record, want %d", n, len(stagedCorpusWarm))
			}
		})
	}
}

// TestRetiredStripeSplitRefused appends one OpSplit record — the placement
// record of the removed stripe-splitting tier — to a clean sharded log.
// Recovery and a replica must both refuse it with errRetiredSplit rather
// than replay a placement the engine can no longer build: Open directly, a
// replica opened on the log through OpenReplica, and a replica already
// tailing the log when the record arrives through Replica.Err.
func TestRetiredStripeSplitRefused(t *testing.T) {
	dir := t.TempDir()
	e, err := New(stagedCorpusOpts(dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertBatch(stagedCorpusWarm); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	tailing, err := OpenReplica(dir, WithReplicaPoll(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer tailing.Close()

	log, err := wal.Open(dir, wal.Options{MustExist: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]wal.Op{{Kind: wal.OpSplit, ID: 0, To: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, errRetiredSplit) {
			t.Fatalf("%s: error = %v, want errRetiredSplit", what, err)
		}
		if !strings.Contains(err.Error(), "retired stripe split") {
			t.Fatalf("%s: error %q does not name the retired stripe split", what, err)
		}
	}
	if r, err := Open(dir); err == nil {
		r.Close()
		t.Fatal("Open recovered a log holding an OpSplit record")
	} else {
		check("Open", err)
	}
	if r, err := OpenReplica(dir); err == nil {
		r.Close()
		t.Fatal("OpenReplica applied a log holding an OpSplit record")
	} else {
		check("OpenReplica", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tailing.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("tailing replica still healthy at seq %d after the OpSplit record", tailing.AppliedSeq())
		}
		time.Sleep(time.Millisecond)
	}
	check("Replica.Err", tailing.Err())
}

// TestMalformedPlacementRecordRefused appends one malformed placement record
// to a clean log and checks that Open and OpenReplica both refuse it with
// the message naming the defect, instead of replaying a placement the writer
// could never have produced.
func TestMalformedPlacementRecordRefused(t *testing.T) {
	const shards = 2
	cases := []struct {
		name    string
		sharded bool
		rec     func(band int64) []wal.Op
		want    string
	}{
		{"assign to shard n", true, func(int64) []wal.Op {
			return []wal.Op{{Kind: wal.OpAssign, ID: 0, To: shards}}
		}, fmt.Sprintf("placement record targets shard %d of %d", shards, shards)},
		{"assign to shard -1", true, func(int64) []wal.Op {
			return []wal.Op{{Kind: wal.OpAssign, ID: 0, To: -1}}
		}, fmt.Sprintf("placement record targets shard -1 of %d", shards)},
		{"assign in single-backend log", false, func(int64) []wal.Op {
			return []wal.Op{{Kind: wal.OpAssign, ID: 0, To: 1}}
		}, "placement record in a single-backend log"},
		{"assign inside data record", true, func(int64) []wal.Op {
			return []wal.Op{
				{Kind: wal.OpInsert, Coord: []float64{3, 3}},
				{Kind: wal.OpAssign, ID: 0, To: 1},
			}
		}, "placement op inside a data record"},
		{"width at ghost band", true, func(band int64) []wal.Op {
			return []wal.Op{{Kind: wal.OpWidth, ID: band}}
		}, "-cell ghost band"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := []Option{WithEps(6), WithMinPts(3), WithWAL(dir, SyncAlways()), WithWALCheckpointEvery(0)}
			if tc.sharded {
				opts = append(opts, WithShards(shards), WithShardStripe(4))
			}
			e, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.InsertBatch(stagedCorpusWarm); err != nil {
				t.Fatal(err)
			}
			var band int64
			if e.sh != nil {
				band = e.sh.bandCells
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			log, err := wal.Open(dir, wal.Options{MustExist: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(tc.rec(band)); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			check := func(what string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted the malformed record", what)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: error %q does not contain %q", what, err, tc.want)
				}
			}
			r, err := Open(dir)
			if err == nil {
				r.Close()
			}
			check("Open", err)
			rep, err := OpenReplica(dir)
			if err == nil {
				rep.Close()
			}
			check("OpenReplica", err)
		})
	}
}

// TestExplicitHandleDomain appends one explicit-handle record naming a handle
// at the edge of the handle domain to a clean staged-corpus log. Open and
// OpenReplica must both refuse a negative handle (a corrupt uvarint of 2^63
// or more decodes to one). A record naming handle 2^62 recovers: the route
// table spends one page on the sparse handle, never memory for the gap
// before it, and the mint counter continues past it.
func TestExplicitHandleDomain(t *testing.T) {
	const far = PointID(1) << 62
	for _, tc := range []struct {
		name string
		rec  []wal.Op
		want string // error substring; "" means the record recovers
	}{
		{"negative OpInsertAt", []wal.Op{{Kind: wal.OpInsertAt, ID: -1, Coord: []float64{1000, 1000}}},
			"explicit insert names handle -1"},
		{"negative OpStagedInsert", []wal.Op{{Kind: wal.OpStagedInsert, ID: -1 << 62, Coord: []float64{1000, 1000}}},
			fmt.Sprintf("explicit insert names handle %d", int64(-1)<<62)},
		{"handle 2^62", []wal.Op{{Kind: wal.OpInsertAt, ID: int64(far), Coord: []float64{1000, 1000}}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := New(stagedCorpusOpts(dir)...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.InsertBatch(stagedCorpusWarm); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			log, err := wal.Open(dir, wal.Options{MustExist: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(tc.rec); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery's allocation volume: the gap before handle 2^62 spans
			// 2^53 route-table pages, so any per-page cost of the gap shows
			// up here long before it could exhaust memory.
			const allocBound = 64 << 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err := Open(dir)
			runtime.ReadMemStats(&after)
			rep, repErr := OpenReplica(dir)
			if tc.want != "" {
				for what, err := range map[string]error{"Open": err, "OpenReplica": repErr} {
					if err == nil {
						t.Fatalf("%s accepted the out-of-domain handle", what)
					}
					if !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("%s: error %q does not contain %q", what, err, tc.want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if repErr != nil {
				t.Fatal(repErr)
			}
			defer rep.Close()
			if grew := after.TotalAlloc - before.TotalAlloc; grew > allocBound {
				t.Fatalf("recovery allocated %d bytes, bound %d", grew, allocBound)
			}
			if pages, bound := len(r.sh.routes.dir), len(stagedCorpusWarm)/routePageSlots+2; pages > bound {
				t.Fatalf("route table holds %d pages, bound %d", pages, bound)
			}
			for what, q := range map[string]interface {
				Len() int
				Has(PointID) bool
			}{"Open": r, "OpenReplica": rep} {
				if n := q.Len(); n != len(stagedCorpusWarm)+1 {
					t.Fatalf("%s: Len = %d, want %d", what, n, len(stagedCorpusWarm)+1)
				}
				if !q.Has(far) {
					t.Fatalf("%s: handle 2^62 is not live", what)
				}
			}
			if err := r.SeamAudit(); err != nil {
				t.Fatal(err)
			}
			id, err := r.Insert(Point{1002, 1000})
			if err != nil {
				t.Fatal(err)
			}
			if id != far+1 {
				t.Fatalf("next minted handle = %d, want %d", id, far+1)
			}
			if err := r.Delete(far); err != nil {
				t.Fatal(err)
			}
			if err := r.SeamAudit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLogMetaShardLimit: a log whose meta record names more shards than a
// route's copy mask holds is refused by Open and OpenReplica, with an error
// that names the limit, before any engine is built.
func TestLogMetaShardLimit(t *testing.T) {
	dir := t.TempDir()
	meta := encodeEngineMeta(
		&Engine{algo: AlgoFullyDynamic, cfg: Config{Dims: 2, Eps: 6, MinPts: 3}},
		&engineSettings{shards: maxShards + 1},
	)
	log, err := wal.Open(dir, wal.Options{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("supports 1 to %d", maxShards)
	if r, err := Open(dir); err == nil {
		r.Close()
		t.Fatal("Open accepted a 65-shard log")
	} else if !strings.Contains(err.Error(), want) {
		t.Fatalf("Open: error %q does not contain %q", err, want)
	}
	if r, err := OpenReplica(dir); err == nil {
		r.Close()
		t.Fatal("OpenReplica accepted a 65-shard log")
	} else if !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenReplica: error %q does not contain %q", err, want)
	}
}
