package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/srbws"
)

// transfer is the SRB file transfer of §3.2: whole files of 16 KiB to
// 1 MiB moved as one SOAP string in each direction, straight to one
// backend over HTTP. The payloads are full of '<' and '&', so every byte is
// escaped on the way out and unescaped on the way in: cost per byte
// (escaping, message buffers, garbage collection) dominates, and the
// cache, the WAL and the gateway are all bypassed.
type transfer struct{}

const (
	// xferFiles is odd so the median operation falls inside one size class
	// instead of on the boundary between two, where the op mix of a chunk
	// would flip p50 between them.
	xferFiles  = 13 // per client
	xferMin    = 16 << 10
	xferMax    = 1 << 20
	xferGetPct = 60
	// xferAlphabet is the payload byte set: markup and entity characters
	// at a density no real text reaches, plus everything else XML
	// character data may carry unescaped. No '\r': XML normalises it.
	xferAlphabet = "<&<&>\"' \n\tabcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
)

// transferModel is the seeded payload set: for each client's files, two
// variants that puts alternate between.
type transferModel struct {
	paths    [nClients][xferFiles]string
	variants [nClients][xferFiles][2]string
}

// prepare generates every payload the run uses, before any stack exists:
// input generation is neither set-up nor the stack's heap.
func (transfer) prepare(seed int64) any {
	rng := rand.New(rand.NewSource(seed))
	m := &transferModel{}
	for c := 0; c < nClients; c++ {
		for f := 0; f < xferFiles; f++ {
			m.paths[c][f] = fmt.Sprintf("/sdsc/home/%s/c%d-dataset%02d.dat", principal, c, f)
			// A fixed geometric ladder of sizes, so every seed moves the
			// same bytes per operation; the seed picks the contents.
			size := int(xferMin * math.Pow(xferMax/xferMin, float64(f)/(xferFiles-1)))
			for v := 0; v < 2; v++ {
				b := make([]byte, size)
				for i := range b {
					b[i] = xferAlphabet[rng.Intn(len(xferAlphabet))]
				}
				m.variants[c][f][v] = string(b)
			}
		}
	}
	return m
}

// setup starts the backend and stores every file's first variant through
// the SRB service's own put operation over HTTP.
func (transfer) setup(cfg *config, tr *tracer, _ string) (*stack, error) {
	m := cfg.inputs.(*transferModel)
	b, err := newBackend("", tr, nil)
	if err != nil {
		return nil, err
	}
	t, hc := newHTTPTransport(nil)
	defer hc.CloseIdleConnections()
	cl := srbws.NewClient(t, b.base+"/ssp/SRBService")
	for c := range m.paths {
		for f, path := range m.paths[c] {
			if err := cl.Put(path, m.variants[c][f][0], ""); err != nil {
				b.close()
				return nil, fmt.Errorf("preload %s: %w", path, err)
			}
		}
	}
	return &stack{backends: []*backend{b}, entry: b.base, model: m, close: b.close}, nil
}

type transferClient struct {
	id  int
	m   *transferModel
	tr  *tracer
	rng *rand.Rand
	srb *srbws.Client
	cur [xferFiles]int // the variant each file holds
	// deck is the client's files in a seeded order, dealt one per
	// operation and reshuffled when spent: every file is moved equally
	// often, so the bytes per operation do not depend on the seed.
	deck []int
}

func (transfer) client(st *stack, id int, seed int64, tr *tracer) runner {
	t, _ := newHTTPTransport(tr)
	return &transferClient{
		id:  id,
		m:   st.model.(*transferModel),
		tr:  tr,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(id))),
		srb: srbws.NewClient(t, st.entry+"/ssp/SRBService"),
	}
}

func (c *transferClient) do() (time.Duration, error) {
	if len(c.deck) == 0 {
		c.deck = c.rng.Perm(xferFiles)
	}
	f := c.deck[0]
	c.deck = c.deck[1:]
	path := c.m.paths[c.id][f]
	var d time.Duration
	var err error
	if c.rng.Intn(100) < xferGetPct {
		var data string
		d = timed(c.tr, func() { data, err = c.srb.Get(path) })
		if err == nil && data != c.m.variants[c.id][f][c.cur[f]] {
			err = fmt.Errorf("get %s: %d bytes differ from the %d stored", path, len(data), len(c.m.variants[c.id][f][c.cur[f]]))
		}
		return d, err
	}
	next := 1 - c.cur[f]
	d = timed(c.tr, func() { err = c.srb.Put(path, c.m.variants[c.id][f][next], "") })
	if err == nil {
		c.cur[f] = next
	}
	return d, err
}

func (transfer) endState(st *stack, clients []runner) (map[string]int64, error) {
	b := st.backends[0]
	h := sha256.New()
	var total int64
	for id, r := range clients {
		c := r.(*transferClient)
		for f, path := range c.m.paths[id] {
			got, err := b.broker.Sget(principal, path)
			if err != nil {
				return nil, err
			}
			if got != c.m.variants[id][f][c.cur[f]] {
				return nil, fmt.Errorf("%s does not hold the last variant put", path)
			}
			h.Write([]byte(got))
			total += int64(len(got))
		}
	}
	return map[string]int64{
		"srb.bytes":  total,
		"srb.sha256": int64(binary.BigEndian.Uint64(h.Sum(nil))),
	}, nil
}
