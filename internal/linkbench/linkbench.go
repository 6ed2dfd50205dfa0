// Package linkbench generates a LinkBench-like workload: the Facebook
// social-graph benchmark the paper runs against PostgreSQL (Fig 9a,
// Fig 10). Nodes and typed links with power-law popularity, and the
// published operation mix (~31 % writes).
package linkbench

import (
	"encoding/binary"
	"math/rand"

	"twobssd/internal/sim"
	"twobssd/internal/ycsb"
)

// OpKind is a LinkBench operation.
type OpKind int

// The LinkBench operation set.
const (
	AddNode OpKind = iota
	UpdateNode
	DeleteNode
	GetNode
	AddLink
	DeleteLink
	UpdateLink
	CountLinks
	GetLink
	GetLinkList
)

// mix is the published LinkBench operation distribution (percent).
var mix = []struct {
	kind OpKind
	pct  float64
}{
	{AddNode, 2.6},
	{UpdateNode, 7.4},
	{DeleteNode, 1.0},
	{GetNode, 12.9},
	{AddLink, 9.0},
	{DeleteLink, 3.0},
	{UpdateLink, 8.0},
	{CountLinks, 4.9},
	{GetLink, 0.5},
	{GetLinkList, 50.7},
}

// Graph is the store interface the workload drives — the shape of the
// paper's patched PostgreSQL schema (node table + link table).
type Graph interface {
	AddNode(p *sim.Proc, id uint64, data []byte) error
	UpdateNode(p *sim.Proc, id uint64, data []byte) error
	DeleteNode(p *sim.Proc, id uint64) error
	GetNode(p *sim.Proc, id uint64) ([]byte, bool, error)
	AddLink(p *sim.Proc, id1, id2 uint64, linkType uint32, data []byte) error
	DeleteLink(p *sim.Proc, id1, id2 uint64, linkType uint32) error
	GetLink(p *sim.Proc, id1, id2 uint64, linkType uint32) ([]byte, bool, error)
	GetLinkList(p *sim.Proc, id1 uint64, linkType uint32, limit int) (int, error)
	CountLinks(p *sim.Proc, id1 uint64, linkType uint32) (int, error)
}

// Config shapes a workload.
type Config struct {
	Nodes int64 // initial graph size
	Seed  int64
}

const (
	linkTypes = 2   // distinct link types
	dataBytes = 128 // node/link payload size
)

// Generator produces deterministic LinkBench operations.
type Generator struct {
	cfg    Config
	zipf   *ycsb.Zipfian
	rng    *rand.Rand
	nextID uint64
	data   []byte
	cum    []float64
}

// NewGenerator builds a generator.
func NewGenerator(cfg Config) *Generator {
	g := &Generator{
		cfg:    cfg,
		zipf:   ycsb.NewZipfian(cfg.Nodes, 0.99, cfg.Seed),
		rng:    rand.New(rand.NewSource(cfg.Seed + 13)),
		nextID: uint64(cfg.Nodes),
		data:   make([]byte, dataBytes),
	}
	for i := range g.data {
		g.data[i] = byte('A' + i%26)
	}
	var cum float64
	for _, m := range mix {
		cum += m.pct
		g.cum = append(g.cum, cum)
	}
	return g
}

func (g *Generator) pick() OpKind {
	r := g.rng.Float64() * g.cum[len(g.cum)-1]
	for i, c := range g.cum {
		if r < c {
			return mix[i].kind
		}
	}
	return GetLinkList
}

func (g *Generator) node() uint64 { return uint64(g.zipf.Next()) }

func (g *Generator) linkType() uint32 { return uint32(g.rng.Intn(linkTypes)) }

// NodeKey/LinkKey format composite keys for a relational mapping.
func NodeKey(id uint64) []byte {
	k := make([]byte, 9)
	k[0] = 'n'
	binary.BigEndian.PutUint64(k[1:], id)
	return k
}

// LinkKey orders links by (id1, type, id2) so GetLinkList is a range
// scan — the paper's caching-layer-miss pattern.
func LinkKey(id1 uint64, linkType uint32, id2 uint64) []byte {
	k := make([]byte, 21)
	k[0] = 'l'
	binary.BigEndian.PutUint64(k[1:], id1)
	binary.BigEndian.PutUint32(k[9:], linkType)
	binary.BigEndian.PutUint64(k[13:], id2)
	return k
}

// LinkPrefix is the scan start for (id1, linkType).
func LinkPrefix(id1 uint64, linkType uint32) []byte {
	k := make([]byte, 13)
	k[0] = 'l'
	binary.BigEndian.PutUint64(k[1:], id1)
	binary.BigEndian.PutUint32(k[9:], linkType)
	return k
}

// Load populates the initial graph: every node, plus power-law links.
func (g *Generator) Load(p *sim.Proc, gr Graph, linksPerNode int) error {
	for id := int64(0); id < g.cfg.Nodes; id++ {
		if err := gr.AddNode(p, uint64(id), g.data); err != nil {
			return err
		}
	}
	for id := int64(0); id < g.cfg.Nodes; id++ {
		n := g.rng.Intn(2*linksPerNode + 1)
		for j := 0; j < n; j++ {
			dst := g.node()
			if err := gr.AddLink(p, uint64(id), dst, g.linkType(), g.data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Step executes one operation against the graph.
func (g *Generator) Step(p *sim.Proc, gr Graph) (OpKind, error) {
	kind := g.pick()
	switch kind {
	case AddNode:
		id := g.nextID
		g.nextID++
		return kind, gr.AddNode(p, id, g.data)
	case UpdateNode:
		return kind, gr.UpdateNode(p, g.node(), g.data)
	case DeleteNode:
		return kind, gr.DeleteNode(p, g.node())
	case GetNode:
		_, _, err := gr.GetNode(p, g.node())
		return kind, err
	case AddLink:
		return kind, gr.AddLink(p, g.node(), g.node(), g.linkType(), g.data)
	case DeleteLink:
		return kind, gr.DeleteLink(p, g.node(), g.node(), g.linkType())
	case UpdateLink:
		return kind, gr.AddLink(p, g.node(), g.node(), g.linkType(), g.data)
	case CountLinks:
		_, err := gr.CountLinks(p, g.node(), g.linkType())
		return kind, err
	case GetLink:
		_, _, err := gr.GetLink(p, g.node(), g.node(), g.linkType())
		return kind, err
	default: // GetLinkList
		_, err := gr.GetLinkList(p, g.node(), g.linkType(), 10)
		return kind, err
	}
}

// NewClient builds the generator of client c of a run whose clients
// share cfg: each draws its own deterministic stream, and the nodes it
// adds take ids from a space disjoint from every other client's.
func NewClient(cfg Config, c int) *Generator {
	cfg.Seed += int64(c) * 104729
	g := NewGenerator(cfg)
	g.nextID = uint64(cfg.Nodes) + uint64(c)<<40
	return g
}
