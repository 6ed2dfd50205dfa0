// Package linkbench generates a LinkBench-like workload: the Facebook
// social-graph benchmark the paper runs against PostgreSQL (Fig 9a,
// Fig 10). Nodes and typed links with power-law popularity, and the
// published operation mix (~31 % writes).
package linkbench

import (
	"encoding/binary"
	"fmt"
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

func (k OpKind) String() string {
	names := []string{"ADD_NODE", "UPDATE_NODE", "DELETE_NODE", "GET_NODE",
		"ADD_LINK", "DELETE_LINK", "UPDATE_LINK", "COUNT_LINKS", "GET_LINK", "GET_LINK_LIST"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

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

// Result summarizes a run.
type Result struct {
	Ops     int64
	Writes  int64
	Reads   int64
	Elapsed sim.Duration
	ByKind  map[OpKind]int64
}

// Throughput returns operations per second of virtual time.
func (r Result) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
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

// Run executes ops operations across clients concurrent processes.
func Run(env *sim.Env, gr Graph, cfg Config, clients int, ops int64) (Result, error) {
	if clients <= 0 {
		clients = 1
	}
	perClient := ops / int64(clients)
	res := Result{ByKind: make(map[OpKind]int64)}
	var firstErr error
	start := env.Now()
	var lastDone sim.Time
	for c := 0; c < clients; c++ {
		ccfg := cfg
		ccfg.Seed = cfg.Seed + int64(c)*104729
		g := NewGenerator(ccfg)
		g.nextID = uint64(cfg.Nodes) + uint64(c)<<40 // disjoint id space
		env.Go(fmt.Sprintf("linkbench.c%d", c), func(p *sim.Proc) {
			for i := int64(0); i < perClient; i++ {
				kind, err := g.Step(p, gr)
				if err != nil && firstErr == nil {
					firstErr = err
					return
				}
				res.Ops++
				res.ByKind[kind]++
				if kind.IsWrite() {
					res.Writes++
				} else {
					res.Reads++
				}
			}
			if env.Now() > lastDone {
				lastDone = env.Now()
			}
		})
	}
	env.Run()
	// Elapsed ends at the last client's completion — background flush
	// timers that fire later must not dilate the measurement.
	res.Elapsed = sim.Duration(lastDone - start)
	return res, firstErr
}
