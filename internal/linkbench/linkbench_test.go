package linkbench

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"twobssd/internal/sim"
)

func TestMixFractions(t *testing.T) {
	g := NewGenerator(Config{Nodes: 1000, Seed: 3})
	counts := make(map[OpKind]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[g.pick()]++
	}
	// GetLinkList dominates (~50.7 %).
	if frac := float64(counts[GetLinkList]) / n; frac < 0.45 || frac > 0.56 {
		t.Fatalf("GET_LINK_LIST fraction = %.3f", frac)
	}
	// Writes ≈ 31 %.
	writes := 0
	for k, c := range counts {
		if k.IsWrite() {
			writes += c
		}
	}
	if frac := float64(writes) / n; frac < 0.26 || frac > 0.36 {
		t.Fatalf("write fraction = %.3f, want ~0.31", frac)
	}
}

func TestKeyEncodingOrders(t *testing.T) {
	// Link keys for one (id1, type) must sort contiguously after the
	// prefix, so GetLinkList is a range scan.
	k1 := LinkKey(5, 1, 10)
	k2 := LinkKey(5, 1, 200)
	k3 := LinkKey(5, 2, 1)
	k4 := LinkKey(6, 0, 0)
	pfx := LinkPrefix(5, 1)
	if !bytes.HasPrefix(k1, pfx) || !bytes.HasPrefix(k2, pfx) {
		t.Fatal("prefix mismatch")
	}
	keys := [][]byte{k4, k3, k2, k1}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	if !bytes.Equal(keys[0], k1) || !bytes.Equal(keys[1], k2) || !bytes.Equal(keys[2], k3) {
		t.Fatal("link keys not ordered by (id1, type, id2)")
	}
	if bytes.HasPrefix(k3, pfx) {
		t.Fatal("different type shares prefix")
	}
	n1, n2 := NodeKey(1), NodeKey(2)
	if bytes.Compare(n1, n2) >= 0 {
		t.Fatal("node keys not ordered")
	}
}

// memGraph is a trivial in-memory Graph for runner tests.
type memGraph struct {
	nodes map[uint64][]byte
	links map[string][]byte
}

func newMemGraph() *memGraph {
	return &memGraph{nodes: make(map[uint64][]byte), links: make(map[string][]byte)}
}

func (g *memGraph) AddNode(p *sim.Proc, id uint64, data []byte) error {
	p.Sleep(2 * sim.Microsecond)
	g.nodes[id] = data
	return nil
}
func (g *memGraph) UpdateNode(p *sim.Proc, id uint64, data []byte) error {
	return g.AddNode(p, id, data)
}
func (g *memGraph) DeleteNode(p *sim.Proc, id uint64) error {
	p.Sleep(2 * sim.Microsecond)
	delete(g.nodes, id)
	return nil
}
func (g *memGraph) GetNode(p *sim.Proc, id uint64) ([]byte, bool, error) {
	p.Sleep(sim.Microsecond)
	d, ok := g.nodes[id]
	return d, ok, nil
}
func (g *memGraph) AddLink(p *sim.Proc, id1, id2 uint64, lt uint32, data []byte) error {
	p.Sleep(2 * sim.Microsecond)
	g.links[string(LinkKey(id1, lt, id2))] = data
	return nil
}
func (g *memGraph) DeleteLink(p *sim.Proc, id1, id2 uint64, lt uint32) error {
	p.Sleep(2 * sim.Microsecond)
	delete(g.links, string(LinkKey(id1, lt, id2)))
	return nil
}
func (g *memGraph) GetLink(p *sim.Proc, id1, id2 uint64, lt uint32) ([]byte, bool, error) {
	p.Sleep(sim.Microsecond)
	d, ok := g.links[string(LinkKey(id1, lt, id2))]
	return d, ok, nil
}
func (g *memGraph) GetLinkList(p *sim.Proc, id1 uint64, lt uint32, limit int) (int, error) {
	p.Sleep(sim.Microsecond)
	pfx := LinkPrefix(id1, lt)
	n := 0
	for k := range g.links {
		if bytes.HasPrefix([]byte(k), pfx) {
			n++
			if n >= limit {
				break
			}
		}
	}
	return n, nil
}
func (g *memGraph) CountLinks(p *sim.Proc, id1 uint64, lt uint32) (int, error) {
	return g.GetLinkList(p, id1, lt, 1<<30)
}

// The graph loads, and the clients of a run keep the published mix:
// 25–37 % writes and at least 8 of the 10 op kinds, with the nodes
// each adds in an id space of its own.
func TestLoadAndRun(t *testing.T) {
	env := sim.NewEnv()
	gr := newMemGraph()
	g := NewGenerator(Config{Nodes: 100, Seed: 1})
	env.Go("load", func(p *sim.Proc) {
		if err := g.Load(p, gr, 3); err != nil {
			t.Errorf("load: %v", err)
		}
	})
	env.Run()
	if len(gr.nodes) != 100 {
		t.Fatalf("nodes = %d", len(gr.nodes))
	}
	if len(gr.links) == 0 {
		t.Fatal("no links loaded")
	}
	byKind := make(map[OpKind]int)
	writes := 0
	const clients, ops = 4, 500
	for c := 0; c < clients; c++ {
		g := NewClient(Config{Nodes: 100, Seed: 2}, c)
		if want := uint64(100) + uint64(c)<<40; g.nextID != want {
			t.Fatalf("client %d adds nodes from id %d, want %d", c, g.nextID, want)
		}
		env.Go(fmt.Sprintf("c%d", c), func(p *sim.Proc) {
			for i := 0; i < ops; i++ {
				kind, err := g.Step(p, gr)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				byKind[kind]++
				if kind.IsWrite() {
					writes++
				}
			}
		})
	}
	env.Run()
	if wf := float64(writes) / (clients * ops); wf < 0.25 || wf > 0.37 {
		t.Fatalf("write fraction = %.3f", wf)
	}
	if len(byKind) < 8 {
		t.Fatalf("op kinds seen = %d", len(byKind))
	}
}

func TestOpKindStrings(t *testing.T) {
	if AddNode.String() != "ADD_NODE" || GetLinkList.String() != "GET_LINK_LIST" {
		t.Fatal("names wrong")
	}
}

func (k OpKind) String() string {
	names := []string{"ADD_NODE", "UPDATE_NODE", "DELETE_NODE", "GET_NODE",
		"ADD_LINK", "DELETE_LINK", "UPDATE_LINK", "COUNT_LINKS", "GET_LINK", "GET_LINK_LIST"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsWrite classifies an operation.
func (k OpKind) IsWrite() bool {
	switch k {
	case AddNode, UpdateNode, DeleteNode, AddLink, DeleteLink, UpdateLink:
		return true
	default:
		return false
	}
}
