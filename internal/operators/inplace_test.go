package operators

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gradoop/internal/cypher"
	"gradoop/internal/dataflow"
	"gradoop/internal/embedding"
	"gradoop/internal/epgm"
	"gradoop/internal/trace"
)

// inplaceStore is a pinned graph of persons 1..persons with a property n, each
// with outDegree knows edges to the persons after it on a ring.
func inplaceStore(persons, outDegree int) *epgm.Store {
	vs := make([]epgm.Vertex, persons)
	for i := range vs {
		vs[i] = epgm.Vertex{ID: epgm.ID(1 + i), Label: "Person", Properties: epgm.Properties{}.Set("n", epgm.PVInt(int64(1+i)))}
	}
	var es []epgm.Edge
	for i := range vs {
		for hop := 1; hop <= outDegree; hop++ {
			es = append(es, epgm.Edge{ID: epgm.ID(1000 + len(es)), Label: "knows", Source: vs[i].ID, Target: vs[(i+hop)%persons].ID})
		}
	}
	return epgm.NewStore(epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(1)), "", vs, es))
}

// firstPersons is the selective side: the persons with n <= k.
func firstPersons(t testing.TB, v string, k int) *FilterAndProjectVertices {
	t.Helper()
	q, err := cypher.Parse(fmt.Sprintf("MATCH (%s) WHERE %s.n <= %d RETURN *", v, v, k))
	if err != nil {
		t.Fatal(err)
	}
	return NewFilterAndProjectVertices(&cypher.QueryVertex{Var: v, Labels: []string{"Person"},
		Predicates: []cypher.Expr{q.Where}, Projection: []string{"n"}})
}

func plainKnows(v, src, tgt string) *cypher.QueryEdge {
	return &cypher.QueryEdge{Var: v, Types: []string{"knows"}, Source: src, Target: tgt, MinHops: 1, MaxHops: 1}
}

// bag is a dataset's rows as their wire bytes, sorted.
func bag(rows []embedding.Embedding) [][]byte {
	out := make([][]byte, len(rows))
	for i, e := range rows {
		out[i] = e.AppendWire(nil)
	}
	slices.SortFunc(out, bytes.Compare)
	return out
}

func setProbeScale(t testing.TB, scale float64) {
	t.Helper()
	old := probeInPlaceScale
	probeInPlaceScale = scale
	t.Cleanup(func() { probeInPlaceScale = old })
}

// walkedFrom is the selective side of a join that probes a vertex leaf: the
// persons v with n <= k joined with their knows edges (e, src, tgt), which the
// join walks over a pinned store.
func walkedFrom(t testing.TB, v string, k int, e, src, tgt string) *JoinEmbeddings {
	persons := firstPersons(t, v, k)
	if v == src {
		return NewJoinEmbeddings(persons, NewFilterAndProjectEdges(plainKnows(e, src, tgt)), Morphism{}, nil)
	}
	return NewJoinEmbeddings(NewFilterAndProjectEdges(plainKnows(e, src, tgt)), persons, Morphism{}, nil)
}

// TestProbeInPlaceOnEitherSide: a vertex leaf - the knows edges' target and
// their source - as the left and as the right input of the join, probed in
// place, gives the rows the repartition join gives, columns in the same order.
func TestProbeInPlaceOnEitherSide(t *testing.T) {
	store := inplaceStore(30, 3)
	for _, leaf := range []string{"target", "source"} {
		for _, onLeft := range []bool{false, true} {
			small := walkedFrom(t, "a", 4, "e", "a", "b")
			probed := NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Labels: []string{"Person"}, Projection: []string{"n"}})
			if leaf == "source" {
				small = walkedFrom(t, "b", 4, "e", "a", "b")
				probed = NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "a", Labels: []string{"Person"}, Projection: []string{"n"}})
			}
			op := NewJoinEmbeddings(small, probed, Morphism{}, nil)
			if onLeft {
				op = NewJoinEmbeddings(probed, small, Morphism{}, nil)
			}
			run := func(scale float64) ([][]byte, string) {
				setProbeScale(t, scale)
				env := dataflow.NewEnv(dataflow.DefaultConfig(4))
				col := trace.NewCollector()
				env.SetTracer(col)
				rows := op.Evaluate(indexedRun(store.Index(env))).Collect()
				if err := env.Err(); err != nil {
					t.Fatal(err)
				}
				st, _ := col.Op(op)
				return bag(rows), st.Note
			}
			want, note := run(math.Inf(1))
			if len(want) != 12 || !strings.HasPrefix(note, "repartition n=") {
				t.Fatalf("%s, leaf on the left %v: the repartition join found %d rows and says %q", leaf, onLeft, len(want), note)
			}
			got, note := run(0)
			if !strings.HasPrefix(note, "broadcast n=") {
				t.Fatalf("%s, leaf on the left %v: with the rule at always the join says %q", leaf, onLeft, note)
			}
			if !slices.EqualFunc(got, want, bytes.Equal) {
				t.Errorf("%s, leaf on the left %v: probed in place the join's rows differ from the repartition join's", leaf, onLeft)
			}
		}
	}
}

// TestCountedInputIsEvaluatedOnce: a join that counts an input and then does
// not broadcast it hands the counted rows to the repartition join as they are.
// By stage count: the selective leaf and the walk of its knows edges, the
// count, the person leaf, two shuffles and the join are seven stages; a second
// evaluation of the counted input would be more, and the tracer would have
// seen it twice.
func TestCountedInputIsEvaluatedOnce(t *testing.T) {
	setProbeScale(t, math.Inf(1))
	env := dataflow.NewEnv(dataflow.DefaultConfig(4))
	col := trace.NewCollector()
	env.SetTracer(col)
	small := walkedFrom(t, "a", 4, "e", "a", "b")
	join := NewJoinEmbeddings(small, NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Labels: []string{"Person"}}), Morphism{}, nil)
	if n := join.Evaluate(indexedRun(inplaceStore(30, 3).Index(env))).Count(); n != 12 {
		t.Fatalf("join found %d rows, want 12", n)
	}
	if m := env.Metrics(); m.Stages != 7 {
		t.Fatalf("the join ran %d stages, want 7: leaf, walk, count, leaf, two shuffles, join", m.Stages)
	}
	if st, _ := col.Op(small); st.Evaluations != 1 {
		t.Fatalf("the counted input was evaluated %d times", st.Evaluations)
	}
	if st, _ := col.Op(join); st.Note != "repartition n=12 m=30" {
		t.Fatalf("the join says %q", st.Note)
	}
}

// TestProbeInPlaceRecoversByRescanning: a worker killed inside the in-place
// join's attempt loses nothing that is not in the store: the partition's scan
// runs again (lineage) and the bag of rows is the unfaulted one.
func TestProbeInPlaceRecoversByRescanning(t *testing.T) {
	store := inplaceStore(30, 3)
	// Six rows, counted: 6 x 4 < 30 persons.
	join := NewJoinEmbeddings(walkedFrom(t, "a", 2, "e", "a", "b"),
		NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Labels: []string{"Person"}}), Morphism{}, nil)
	run := func(plan *dataflow.FaultPlan) ([][]byte, dataflow.MetricsSnapshot) {
		env := dataflow.NewEnv(dataflow.DefaultConfig(4))
		env.InjectFaults(plan)
		rows := join.Evaluate(indexedRun(store.Index(env))).Collect()
		if err := env.Err(); err != nil {
			t.Fatal(err)
		}
		return bag(rows), env.Metrics()
	}
	want, m := run(nil)
	if len(want) != 6 || m.Stages != 5 {
		t.Fatalf("unfaulted: %d rows in %d stages, want 6 in 5 (leaf, walk, count, broadcast, join)", len(want), m.Stages)
	}
	// Persons 2 to 5, whom the edges enter, are in partition 0 of the person
	// range.
	got, m := run(&dataflow.FaultPlan{Kills: []dataflow.Kill{{Stage: 5, Partition: 0}, {Stage: 5, Partition: 3, Times: 2}}})
	if m.Retries != 3 {
		t.Fatalf("%d retries, want the 3 injected into the join stage", m.Retries)
	}
	if !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatal("the recovered join's rows differ from the unfaulted join's")
	}
}

// memCluster links the processes of a test job in memory, like the one
// dataflow's own tests use: every collective is a rendezvous of all processes.
// Unlike that one it tells a process whose peers are in another collective
// than it is - which is what a job whose processes took different sides of a
// decision looks like on the wire - instead of misreading their payloads.
type memCluster struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	gen   uint64
	slots []memCall
	ready []memCall
	owner []int // partition -> process
}

type memCall struct {
	kind    string
	payload any
}

func newMemCluster(owner []int, procs int) *memCluster {
	c := &memCluster{slots: make([]memCall, procs), owner: owner}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *memCluster) rendezvous(proc int, call memCall) ([]memCall, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gen
	c.slots[proc] = call
	if c.count++; c.count == len(c.slots) {
		c.count = 0
		c.gen++
		c.ready = slices.Clone(c.slots)
		c.cond.Broadcast()
	} else {
		for gen == c.gen {
			c.cond.Wait()
		}
	}
	for p, other := range c.ready {
		if other.kind != call.kind {
			return nil, fmt.Errorf("process %d is in an %s while process %d is in an %s", proc, call.kind, p, other.kind)
		}
	}
	return c.ready, nil
}

type memTransport struct {
	c    *memCluster
	proc int
}

func (t memTransport) Owns(p int) bool { return t.c.owner[p] == t.proc }

// sent is what a collective puts on the wire: every bucket written before the
// rendezvous, from rows and routes the engine rewrites once the call returns.
func sent(buckets []dataflow.Bucket) [][]byte {
	out := make([][]byte, len(buckets))
	for i, b := range buckets {
		var w appendWriter
		if err := b.Encode(&w); err != nil {
			panic(err)
		}
		out[i] = w
	}
	return out
}

func (t memTransport) Exchange(_ int64, outgoing [][]dataflow.Bucket) ([][][]byte, error) {
	w := len(t.c.owner)
	flat := make([]dataflow.Bucket, w*w)
	for p, row := range outgoing {
		copy(flat[p*w:], row)
	}
	all, err := t.c.rendezvous(t.proc, memCall{"exchange", sent(flat)})
	if err != nil {
		return nil, err
	}
	in := make([][][]byte, w)
	for q := 0; q < w; q++ {
		if !t.Owns(q) {
			continue
		}
		in[q] = make([][]byte, w)
		for p := 0; p < w; p++ {
			if !t.Owns(p) {
				in[q][p] = all[t.c.owner[p]].payload.([][]byte)[p*w+q]
			}
		}
	}
	return in, nil
}

func (t memTransport) AllGather(_ int64, blobs []dataflow.Bucket) ([][]byte, error) {
	all, err := t.c.rendezvous(t.proc, memCall{"all-gather", sent(blobs)})
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(t.c.owner))
	for p := range out {
		if !t.Owns(p) {
			out[p] = all[t.c.owner[p]].payload.([][]byte)[p]
		}
	}
	return out, nil
}

// TestProbeInPlaceDecisionIsGlobal: the processes of a job take the same side
// of the rule because every input of it is global - n is counted across them,
// m is read off the store each has a copy of. Three of four partitions on one
// process and one on the other, 40 persons under the leaf: nine rows (9 x 4 <
// 40) are broadcast and ten (10 x 4 = 40) are not, by both processes, and
// either way the job ends and has the rows one process finds. (With m taken
// from the owned partitions the two processes of the first job disagree and
// wait for each other until the test binary is killed.) A process made to
// disagree - its store has one person more, so 10 x 4 < 41 - ends the job with
// an error on both sides: one is in a shuffle's exchange, the other in a
// broadcast's all-gather.
func TestProbeInPlaceDecisionIsGlobal(t *testing.T) {
	const partitions = 4
	owner := []int{0, 0, 0, 1}
	store := inplaceStore(40, 1) // 40 persons, each knowing the next
	bigger := inplaceStore(40, 1)
	extra := epgm.Vertex{ID: 41, Label: "Person", Properties: epgm.Properties{}.Set("n", epgm.PVInt(41))}
	bigger = epgm.NewStore(epgm.GraphFromSlices(dataflow.NewEnv(dataflow.DefaultConfig(1)), "", append(bigger.Vertices, extra), bigger.Edges))

	type outcome struct {
		parts [][]embedding.Embedding
		note  string
		err   error
	}
	// job runs the join on every process of the cluster, or on one process
	// without a transport if there is no cluster.
	job := func(n int, stores []*epgm.Store) []outcome {
		// One plan, run by every process.
		join := NewJoinEmbeddings(walkedFrom(t, "a", n, "e", "a", "b"),
			NewFilterAndProjectVertices(&cypher.QueryVertex{Var: "b", Labels: []string{"Person"}}), Morphism{}, nil)
		var c *memCluster
		if len(stores) > 1 {
			c = newMemCluster(owner, len(stores))
		}
		outs := make([]outcome, len(stores))
		var wg sync.WaitGroup
		for proc, store := range stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				env := dataflow.NewEnv(dataflow.DefaultConfig(partitions))
				if c != nil {
					env.SetTransport(memTransport{c: c, proc: proc})
				}
				col := trace.NewCollector()
				env.SetTracer(col)
				out := join.Evaluate(indexedRun(store.Index(env)))
				o := &outs[proc]
				for p := 0; p < partitions; p++ {
					o.parts = append(o.parts, out.Partition(p))
				}
				st, _ := col.Op(join)
				o.note, o.err = st.Note, env.Err()
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("n=%d: the job's processes are waiting for each other", n)
		}
		return outs
	}

	for _, tc := range []struct {
		n    int
		note string
	}{{9, "broadcast n=9"}, {10, "repartition n=10 m=40"}} {
		single := job(tc.n, []*epgm.Store{store})[0]
		if single.err != nil || single.note != tc.note {
			t.Fatalf("n=%d in one process: note %q, err %v", tc.n, single.note, single.err)
		}
		var want, got []embedding.Embedding
		for _, part := range single.parts {
			want = append(want, part...)
		}
		outs := job(tc.n, []*epgm.Store{store, store})
		for proc, o := range outs {
			if o.err != nil || o.note != tc.note {
				t.Fatalf("n=%d, process %d: note %q, err %v; want %q from both", tc.n, proc, o.note, o.err, tc.note)
			}
		}
		for p := 0; p < partitions; p++ {
			got = append(got, outs[owner[p]].parts[p]...)
		}
		if len(want) != tc.n || !slices.EqualFunc(bag(got), bag(want), bytes.Equal) {
			t.Fatalf("n=%d: two processes found %d rows, one process %d, want the same %d", tc.n, len(got), len(want), tc.n)
		}
	}

	for proc, o := range job(10, []*epgm.Store{store, bigger}) {
		if o.err == nil || !strings.Contains(o.err.Error(), "while process") {
			t.Fatalf("process %d of a job that disagrees on the rule: note %q, err %v; want the collectives to tell", proc, o.note, o.err)
		}
	}
}
