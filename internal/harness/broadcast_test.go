package harness

import (
	"context"
	"reflect"
	"testing"
)

// broadcastMatrix is the shape of the group bit-identity check: the
// three cross-design frontend compositions — split, split+precon,
// adaptive — plus two Figure 5 storage points, all sharing one recorded
// gcc stream.
func broadcastMatrix() Matrix {
	adaptive := precon(64, 64)
	adaptive.AdaptivePartition = true
	return Matrix{
		Name:    "broadcast-equiv",
		Benches: []string{"gcc"},
		Budget:  60_000,
		Points: []ConfigPoint{
			{Name: "split", Cfg: baseline(64)},
			{Name: "split-precon", Cfg: precon(64, 64)},
			{Name: "adaptive", Cfg: adaptive},
			{Name: "tc256-pb64", Cfg: precon(256, 64)},
			{Name: "tc64-pb256", Cfg: precon(64, 256)},
		},
	}
}

// groupsOfOne runs every cell of the matrix again as a sweep of its
// own — a group of one — and returns the cells in grid order.
func groupsOfOne(t *testing.T, m Matrix, opts ...Option) []Cell {
	t.Helper()
	var cells []Cell
	for _, b := range m.Benches {
		for _, s := range m.seeds() {
			for _, p := range m.Points {
				one := m
				one.Benches, one.Seeds, one.Points = []string{b}, []int64{s}, []ConfigPoint{p}
				g, err := Run(context.Background(), one, opts...)
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, g.Cells[0])
			}
		}
	}
	return cells
}

// matchGroupsOfOne runs the matrix as one sweep and requires every
// cell — full Result, and sampled statistics when sampling — to equal
// the same cell run as a group of one.
func matchGroupsOfOne(t *testing.T, m Matrix, opts ...Option) {
	t.Helper()
	g, err := Run(context.Background(), m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	alone := groupsOfOne(t, m, opts...)
	for i := range g.Cells {
		a, b := &g.Cells[i], &alone[i]
		if a.Bench != b.Bench || a.Seed != b.Seed || a.Point.Name != b.Point.Name {
			t.Fatalf("cell %d: grids disagree on identity (%s/%s vs %s/%s)",
				i, a.Bench, a.Point.Name, b.Bench, b.Point.Name)
		}
		if !reflect.DeepEqual(a.Result, b.Result) {
			t.Errorf("%s/%s: group Result differs from a group of one:\ngroup %+v\nalone %+v",
				a.Bench, a.Point.Name, a.Result, b.Result)
		}
		if !reflect.DeepEqual(a.Sample, b.Sample) {
			t.Errorf("%s/%s: group sampled stats differ from a group of one", a.Bench, a.Point.Name)
		}
	}
}

// TestBroadcastEquivalence asserts the decode-once group is
// measurement-invisible: every member's full Result — counters, cycles,
// nested component stats — matches the same cell run alone exactly.
func TestBroadcastEquivalence(t *testing.T) {
	matchGroupsOfOne(t, broadcastMatrix())
}

// TestBroadcastMixedSelect covers a group whose members disagree on
// SelectConfig: the group splits by SelectConfig and each split
// segments the shared chunks once. Results must still match each cell
// run alone exactly.
func TestBroadcastMixedSelect(t *testing.T) {
	short := baseline(64)
	short.Select.MaxLen = 8
	matchGroupsOfOne(t, Matrix{
		Name:    "broadcast-mixed",
		Benches: []string{"compress"},
		Budget:  50_000,
		Points: []ConfigPoint{
			{Name: "len16", Cfg: baseline(64)},
			{Name: "len8", Cfg: short},
			{Name: "len16-pb", Cfg: precon(64, 64)},
		},
	})
}

// TestBroadcastDecodesOnce pins the decode-once contract against the
// decode-pass counter: a group of N cells costs exactly one pass over
// the recorded stream, while N groups of one cost N.
func TestBroadcastDecodesOnce(t *testing.T) {
	m := broadcastMatrix()
	ctx := context.Background()

	// Warm the stream cache so recording happens outside the window.
	if _, err := Run(ctx, m); err != nil {
		t.Fatal(err)
	}

	before := DecodePasses()
	if _, err := Run(ctx, m); err != nil {
		t.Fatal(err)
	}
	if got := DecodePasses() - before; got != 1 {
		t.Errorf("group sweep of %d cells took %d decode passes, want 1", len(m.Points), got)
	}

	before = DecodePasses()
	groupsOfOne(t, m)
	if got := DecodePasses() - before; got != uint64(len(m.Points)) {
		t.Errorf("%d groups of one took %d decode passes, want %d",
			len(m.Points), got, len(m.Points))
	}
}

// TestBroadcastStreamCacheBytes checks decoded chunk buffers never hit
// the stream cache's encoded-bytes accounting: the cache holds
// encodings only, so a group sweep leaves its byte total exactly where
// recording put it.
func TestBroadcastStreamCacheBytes(t *testing.T) {
	m := broadcastMatrix()
	ctx := context.Background()
	if _, err := Run(ctx, m); err != nil {
		t.Fatal(err) // records the stream
	}
	entries, bytes := StreamCacheStats()
	if _, err := Run(ctx, m); err != nil {
		t.Fatal(err) // group replay: decode must not be charged
	}
	e2, b2 := StreamCacheStats()
	if e2 != entries || b2 != bytes {
		t.Errorf("group sweep moved stream cache accounting: %d entries/%d bytes -> %d/%d",
			entries, bytes, e2, b2)
	}
}

// TestRunGroups checks the partition: cells are grouped by (bench,
// seed) in declaration order.
func TestRunGroups(t *testing.T) {
	m := Matrix{
		Name:    "grouping",
		Benches: []string{"gcc", "go"},
		Seeds:   []int64{0, 1},
		Budget:  1_000,
		Points: []ConfigPoint{
			{Name: "a", Cfg: baseline(64)},
			{Name: "b", Cfg: baseline(128)},
		},
	}
	g := &Grid{Matrix: m, index: map[cellKey]int{}}
	for _, b := range m.Benches {
		for _, s := range m.seeds() {
			for _, p := range m.Points {
				g.index[cellKey{b, s, p.Name}] = len(g.Cells)
				g.Cells = append(g.Cells, Cell{Bench: b, Seed: s, Point: p})
			}
		}
	}

	groups := runGroups(g)
	if len(groups) != 4 { // 2 benches x 2 seeds
		t.Fatalf("got %d groups, want 4", len(groups))
	}
	for gi, idx := range groups {
		if len(idx) != 2 || idx[0] != 2*gi || idx[1] != 2*gi+1 {
			t.Fatalf("group %d = %v, want [%d %d]", gi, idx, 2*gi, 2*gi+1)
		}
		a, b := &g.Cells[idx[0]], &g.Cells[idx[1]]
		if a.Bench != b.Bench || a.Seed != b.Seed {
			t.Errorf("group %v mixes streams: %s/%d and %s/%d", idx, a.Bench, a.Seed, b.Bench, b.Seed)
		}
	}
}
