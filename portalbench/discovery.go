package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/batchscript"
	"repro/internal/grid"
	"repro/internal/uddi"
	"repro/internal/xmlregistry"
)

// discovery is Figure 1's discover → bind → invoke read path through the
// gateway to two identically preloaded in-memory backends. Its keys are
// Zipf-distributed over more distinct requests than either backend's
// 4096-entry caches hold, so some reads hit and some miss; large find
// responses make the client's tree parse count. No request writes, so the
// WAL is never touched.
type discovery struct{}

const (
	discServices = 12288 // UDDI services per backend
	discTModels  = 64    // interfaces; each find returns discServices/discTModels services
	discSites    = 32    // top-level XML registry containers
	discPerSite  = 192   // service containers under each site
	discKinds    = 8     // kind property values; an XML find matches discPerSite/discKinds
	discZipfS    = 1.1
)

// discoveryModel is what the preload published, identical on both
// backends (registry keys derive from the publication sequence).
type discoveryModel struct {
	serviceKeys  []string
	serviceNames []string
	tmodelKeys   []string
	perTModel    []int
}

func (discovery) setup(cfg *config, tr *tracer, _ string) (*stack, error) {
	var models [2]*discoveryModel
	var bes []*backend
	closeAll := func() error {
		var errs []error
		for _, b := range bes {
			errs = append(errs, b.close())
		}
		return errors.Join(errs...)
	}
	for i := range models {
		b, err := newBackend("", tr, func(b *backend) error {
			m, err := preloadDiscovery(b)
			models[i] = m
			return err
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		bes = append(bes, b)
	}
	for i, k := range models[0].serviceKeys {
		if models[1].serviceKeys[i] != k {
			closeAll()
			return nil, fmt.Errorf("backends preloaded differently: key %d is %s and %s", i, k, models[1].serviceKeys[i])
		}
	}
	front, err := newFrontDoor(tr, bes...)
	if err != nil {
		closeAll()
		return nil, err
	}
	return &stack{
		backends: bes, front: front, entry: front.base, model: models[0],
		close: func() error { return errors.Join(front.close(), closeAll()) },
	}, nil
}

func preloadDiscovery(b *backend) (*discoveryModel, error) {
	m := &discoveryModel{perTModel: make([]int, discTModels)}
	biz, err := b.uddi.SaveBusiness(uddi.BusinessEntity{Name: "Grid Computing Environments", Description: "benchmark provider"})
	if err != nil {
		return nil, err
	}
	for i := 0; i < discTModels; i++ {
		tm, err := b.uddi.SaveTModel(uddi.TModel{
			Name:        fmt.Sprintf("gce:Interface%03d", i),
			OverviewURL: fmt.Sprintf("http://wsdl.example.org/iface%03d?wsdl", i),
		})
		if err != nil {
			return nil, err
		}
		m.tmodelKeys = append(m.tmodelKeys, tm.Key)
	}
	for i := 0; i < discServices; i++ {
		name := fmt.Sprintf("service-%05d", i)
		tm := i % discTModels
		s, err := b.uddi.SaveService(uddi.BusinessService{
			BusinessKey: biz.Key,
			Name:        name,
			Description: uddi.DescribeCapabilities("batch script generation at site "+name, []string{"PBS", "GRD"}),
			Bindings: []uddi.BindingTemplate{{
				AccessPoint: fmt.Sprintf("http://node%03d.example.org:8080/ssp/BatchScriptGenerator", i%997),
				TModelKeys:  []string{m.tmodelKeys[tm]},
			}},
		})
		if err != nil {
			return nil, err
		}
		m.serviceKeys = append(m.serviceKeys, s.Key)
		m.serviceNames = append(m.serviceNames, name)
		m.perTModel[tm]++
	}
	for site := 0; site < discSites; site++ {
		for j := 0; j < discPerSite; j++ {
			err := b.xreg.Put(xmlPath(site, j), "service", []xmlregistry.Property{
				{Name: "kind", Value: xmlKind(j)},
				{Name: "host", Value: fmt.Sprintf("node%03d.site%02d.example.org", j, site)},
				{Name: "port", Value: fmt.Sprint(8000 + j)},
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

func xmlPath(site, j int) string { return fmt.Sprintf("site-%02d/svc-%04d", site, j) }
func xmlKind(j int) string       { return fmt.Sprintf("kind-%d", j%discKinds) }

// discoveryClient's operation mix, in percent.
const (
	dGetDetail   = 40
	dFindTModel  = 10
	dXMLGet      = 30
	dXMLFind     = 10
	dGenerate    = 10
	dTotalWeight = dGetDetail + dFindTModel + dXMLGet + dXMLFind + dGenerate
)

type discoveryClient struct {
	m     *discoveryModel
	tr    *tracer
	rng   *rand.Rand
	svcZ  *rand.Zipf
	tmZ   *rand.Zipf
	xmlZ  *rand.Zipf
	qZ    *rand.Zipf
	perm  []int // rank → service index, so hot keys spread over shards
	xperm []int // rank → container index
	uddi  *uddi.Client
	xreg  *xmlregistry.Client
	batch *batchscript.Client
	n     int
}

func (discovery) client(st *stack, id int, seed int64, tr *tracer) runner {
	t, _ := newHTTPTransport(tr)
	rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
	// The rank permutations come from the seed alone, so both clients
	// agree on which keys are hot.
	prng := rand.New(rand.NewSource(seed))
	return &discoveryClient{
		m:     st.model.(*discoveryModel),
		tr:    tr,
		rng:   rng,
		svcZ:  rand.NewZipf(rng, discZipfS, 1, discServices-1),
		tmZ:   rand.NewZipf(rng, discZipfS, 1, discTModels-1),
		xmlZ:  rand.NewZipf(rng, discZipfS, 1, discSites*discPerSite-1),
		qZ:    rand.NewZipf(rng, discZipfS, 1, discSites*discKinds-1),
		perm:  prng.Perm(discServices),
		xperm: prng.Perm(discSites * discPerSite),
		uddi:  uddi.NewClient(t, st.entry+"/uddi/UDDIRegistry"),
		xreg:  xmlregistry.NewClient(t, st.entry+"/registry/XMLRegistry"),
		batch: batchscript.NewClient(t, st.entry+"/ssp/BatchScriptGenerator"),
	}
}

func (c *discoveryClient) do() (time.Duration, error) {
	c.n++
	var d time.Duration
	call := func(f func()) { d = timed(c.tr, f) }
	switch pick := c.rng.Intn(dTotalWeight); {
	case pick < dGetDetail:
		i := c.perm[c.svcZ.Uint64()]
		var s *uddi.BusinessService
		var err error
		call(func() { s, err = c.uddi.GetServiceDetail(c.m.serviceKeys[i]) })
		if err != nil {
			return d, err
		}
		if s.Key != c.m.serviceKeys[i] || s.Name != c.m.serviceNames[i] {
			return d, fmt.Errorf("getServiceDetail(%s): got %s named %q, want %q", c.m.serviceKeys[i], s.Key, s.Name, c.m.serviceNames[i])
		}
	case pick < dGetDetail+dFindTModel:
		tm := int(c.tmZ.Uint64())
		var list []*uddi.BusinessService
		var err error
		call(func() { list, err = c.uddi.FindServiceByTModel(c.m.tmodelKeys[tm]) })
		if err != nil {
			return d, err
		}
		if len(list) != c.m.perTModel[tm] {
			return d, fmt.Errorf("findServiceByTModel: %d services, preloaded %d", len(list), c.m.perTModel[tm])
		}
	case pick < dGetDetail+dFindTModel+dXMLGet:
		k := c.xperm[c.xmlZ.Uint64()]
		site, j := k/discPerSite, k%discPerSite
		var ct *xmlregistry.Container
		var err error
		call(func() { ct, err = c.xreg.Get(xmlPath(site, j)) })
		if err != nil {
			return d, err
		}
		if kind, _ := ct.Prop("kind"); ct.Name != fmt.Sprintf("svc-%04d", j) || kind != xmlKind(j) {
			return d, fmt.Errorf("get(%s): got %s of kind %q", xmlPath(site, j), ct.Name, kind)
		}
	case pick < dGetDetail+dFindTModel+dXMLGet+dXMLFind:
		q := int(c.qZ.Uint64())
		site, kind := q/discKinds, q%discKinds
		var ms []xmlregistry.Match
		var err error
		call(func() {
			ms, err = c.xreg.Find(xmlregistry.Query{
				Type:       "service",
				Under:      fmt.Sprintf("site-%02d", site),
				PropEquals: []xmlregistry.Property{{Name: "kind", Value: xmlKind(kind)}},
			})
		})
		if err != nil {
			return d, err
		}
		if len(ms) != discPerSite/discKinds {
			return d, fmt.Errorf("find(site-%02d, %s): %d matches, preloaded %d", site, xmlKind(kind), len(ms), discPerSite/discKinds)
		}
	default:
		sched := grid.PBS
		if c.rng.Intn(2) == 1 {
			sched = grid.GRD
		}
		req := batchscript.Request{
			Scheduler:  sched,
			JobName:    fmt.Sprintf("run%d", c.n),
			Executable: "/usr/local/bin/matmul",
			Arguments:  []string{fmt.Sprint(64 << c.rng.Intn(4))},
			Nodes:      1 + c.rng.Intn(16),
			WallTime:   time.Duration(1+c.rng.Intn(120)) * time.Minute,
		}
		var script string
		var err error
		call(func() { script, err = c.batch.GenerateScript(req) })
		if err != nil {
			return d, err
		}
		if !strings.Contains(script, directive(sched)+" ") || !strings.Contains(script, req.Executable) {
			return d, fmt.Errorf("generateScript(%s): script does not name its scheduler:\n%s", sched, script)
		}
	}
	return d, nil
}

// directive is the comment prefix a scheduler's batch script starts its
// directive lines with.
func directive(k grid.SchedulerKind) string {
	switch k {
	case grid.PBS:
		return "#PBS"
	case grid.LSF:
		return "#BSUB"
	case grid.NQS:
		return "#QSUB"
	default:
		return "#$"
	}
}

func (discovery) endState(st *stack, _ []runner) (map[string]int64, error) {
	fp := map[string]int64{}
	for i, b := range st.backends {
		_, services, tmodels := b.uddi.Counts()
		ms, err := b.xreg.Find(xmlregistry.Query{Type: "service"})
		if err != nil {
			return nil, err
		}
		if services != discServices || tmodels != discTModels || len(ms) != discSites*discPerSite {
			return fp, fmt.Errorf("backend %d holds %d services, %d tModels, %d containers after a read-only run", i, services, tmodels, len(ms))
		}
		fp[fmt.Sprintf("backend%d.services", i)] = int64(services)
		fp[fmt.Sprintf("backend%d.containers", i)] = int64(len(ms))
	}
	return fp, nil
}
