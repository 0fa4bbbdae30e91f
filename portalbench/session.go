package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/contextmgr"
	"repro/internal/core"
	"repro/internal/jobsub"
	"repro/internal/persist"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/wal"
)

// session is durable per-user state (§3.3) sent straight to one backend
// whose WALs fsync every acknowledged write: context property reads and
// writes, session create/remove pairs, UDDI publish/delete pairs beside
// registry scans, and batch submissions that reach Globusrun over the
// server's loopback transport. Every create is paired with a delete, so
// the state the run ends in is the state it started from.
type session struct{}

const (
	sessUsers      = 64 // per client
	sessProblems   = 2
	sessSessions   = 2
	sessProps      = 4
	sessOwnTModels = 8  // per client; only its owner publishes or finds under them
	sessTModels    = 64 // including the clients' own
	sessServices   = 8192
)

// sessionModel is what the preload published.
type sessionModel struct {
	businessKey string
	tmodels     [nClients][]string // each client's own interfaces
	perTModel   int
	contexts    int
}

// setup writes the preload into a fresh WAL directory without a per-record
// fsync (the preload is input, not the measured system), flushes it once,
// and then starts the backend on it, which replays the log with the
// default, fsyncing WAL options: set-up time is dominated by recovery, the
// work a restarted server does.
func (session) setup(cfg *config, tr *tracer, dir string) (*stack, error) {
	m, err := writeSessionLog(dir)
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	// One flush for the whole preload: left to background writeback, its
	// dirty pages would stretch the measured fsyncs for seconds.
	if err := syncTree(dir); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	b, err := newBackend(dir, tr, nil)
	if err != nil {
		return nil, err
	}
	_, services, _ := b.uddi.Counts()
	if n := b.ctx.CountContexts(); services != sessServices || n != m.contexts {
		b.close()
		return nil, fmt.Errorf("replay recovered %d services and %d contexts, preloaded %d and %d", services, n, sessServices, m.contexts)
	}
	return &stack{backends: []*backend{b}, entry: b.base, model: m, close: b.close}, nil
}

func sessionPath(client, user, problem, sess int) []string {
	return []string{
		fmt.Sprintf("c%d-user%03d", client, user),
		fmt.Sprintf("problem%d", problem),
		fmt.Sprintf("session%d", sess),
	}
}

func propName(p int) string { return fmt.Sprintf("param%d", p) }

func writeSessionLog(dir string) (m *sessionModel, err error) {
	ctx := contextmgr.NewStore()
	ctx.SetTimeSource(func() time.Time { return contextEpoch })
	reg := uddi.NewRegistry()
	var closers []func() error
	defer func() {
		for _, c := range closers {
			err = errors.Join(err, c())
		}
	}()
	for _, s := range []struct {
		name   string
		attach func(persist.Store) error
		close  func() error
	}{
		{"contextmgr", ctx.Persist, ctx.ClosePersist},
		{"uddi", reg.Persist, reg.ClosePersist},
	} {
		l, err := wal.Open(filepath.Join(dir, s.name), wal.Options{NoSync: true})
		if err != nil {
			return nil, err
		}
		if err := s.attach(l); err != nil {
			return nil, errors.Join(err, l.Close())
		}
		closers = append(closers, s.close)
	}

	m = &sessionModel{perTModel: sessServices / sessTModels}
	biz, err := reg.SaveBusiness(uddi.BusinessEntity{Name: "Portal Users", Description: "per-user service publications"})
	if err != nil {
		return nil, err
	}
	m.businessKey = biz.Key
	var tms []string
	for i := 0; i < sessTModels; i++ {
		tm, err := reg.SaveTModel(uddi.TModel{Name: fmt.Sprintf("gce:UserInterface%02d", i), OverviewURL: fmt.Sprintf("http://wsdl.example.org/user%02d?wsdl", i)})
		if err != nil {
			return nil, err
		}
		tms = append(tms, tm.Key)
		if c := i / sessOwnTModels; c < nClients {
			m.tmodels[c] = append(m.tmodels[c], tm.Key)
		}
	}
	for i := 0; i < sessServices; i++ {
		if _, err := reg.SaveService(uddi.BusinessService{
			BusinessKey: biz.Key,
			Name:        fmt.Sprintf("user-service-%05d", i),
			Description: "per-user application service",
			Bindings: []uddi.BindingTemplate{{
				AccessPoint: fmt.Sprintf("http://node%03d.example.org:8080/ssp/ApplicationService", i%509),
				TModelKeys:  []string{tms[i%sessTModels]},
			}},
		}); err != nil {
			return nil, err
		}
	}
	for c := 0; c < nClients; c++ {
		for i := 0; i < sessUsers*sessProblems*sessSessions*sessProps; i++ {
			u, p, s, k := splitProp(i)
			path := sessionPath(c, u, p, s)
			for depth := 1; depth <= len(path); depth++ {
				if ctx.Exists(path[:depth]) {
					continue
				}
				if err := ctx.Create(path[:depth]); err != nil {
					return nil, err
				}
			}
			if err := ctx.SetProp(path, propName(k), initialProp(c, u, p, s, k)); err != nil {
				return nil, err
			}
		}
	}
	m.contexts = ctx.CountContexts()
	return m, nil
}

// syncTree fsyncs every file and directory under root.
func syncTree(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		return errors.Join(f.Sync(), f.Close())
	})
}

func initialProp(c, u, p, s, k int) string {
	return fmt.Sprintf("initial-%d-%d-%d-%d-%d", c, u, p, s, k)
}

// sessionClient's actions, in percent. A pair is one action issuing two
// operations back to back.
const (
	sSetProp   = 20
	sGetProp   = 25
	sListProps = 10
	sSessPair  = 10
	sSvcPair   = 10
	sFind      = 10
	sSubmit    = 15
	sTotal     = sSetProp + sGetProp + sListProps + sSessPair + sSvcPair + sFind + sSubmit
)

// submitHosts gives each client its own testbed host.
var submitHosts = [nClients]string{"modi4.ncsa.uiuc.edu", "bluehorizon.sdsc.edu"}

type sessionClient struct {
	id    int
	m     *sessionModel
	tr    *tracer
	rng   *rand.Rand
	ctx   *core.Client
	uddi  *uddi.Client
	jobs  *jobsub.BatchJobClient
	props []string // the client's model of its own session properties
	next  func() (time.Duration, error)
	n     int
}

func (session) client(st *stack, id int, seed int64, tr *tracer) runner {
	t, _ := newHTTPTransport(tr)
	c := &sessionClient{
		id:    id,
		m:     st.model.(*sessionModel),
		tr:    tr,
		rng:   rand.New(rand.NewSource(seed*1000003 + int64(id))),
		ctx:   core.NewClient(t, st.entry+"/ssp/ContextManager", contextmgr.MonolithContract()),
		uddi:  uddi.NewClient(t, st.entry+"/uddi/UDDIRegistry"),
		jobs:  jobsub.NewBatchJobClient(t, st.entry+"/ssp/BatchJobSubmission"),
		props: make([]string, sessUsers*sessProblems*sessSessions*sessProps),
	}
	for i := range c.props {
		u, p, s, k := splitProp(i)
		c.props[i] = initialProp(id, u, p, s, k)
	}
	return c
}

func splitProp(i int) (u, p, s, k int) {
	k, i = i%sessProps, i/sessProps
	s, i = i%sessSessions, i/sessSessions
	p, u = i%sessProblems, i/sessProblems
	return u, p, s, k
}

func pathParams(path []string) []soap.Value {
	return []soap.Value{soap.Str("user", path[0]), soap.Str("problem", path[1]), soap.Str("session", path[2])}
}

func wantOK(op, got string) error {
	if got != "true" {
		return fmt.Errorf("%s returned %q", op, got)
	}
	return nil
}

// pending reports whether the client is between the two operations of a
// pair; the run finishes the pair before checking the end state.
func (c *sessionClient) pending() bool { return c.next != nil }

func (c *sessionClient) do() (time.Duration, error) {
	if next := c.next; next != nil {
		c.next = nil
		return next()
	}
	c.n++
	var d time.Duration
	var err error
	switch pick := c.rng.Intn(sTotal); {
	case pick < sSetProp+sGetProp+sListProps:
		i := c.rng.Intn(len(c.props))
		u, p, s, k := splitProp(i)
		path := sessionPath(c.id, u, p, s)
		switch {
		case pick < sSetProp:
			value := fmt.Sprintf("v%d-%d <&>", c.id, c.n)
			var ok string
			d = timed(c.tr, func() {
				ok, err = c.ctx.CallText("setSessionProperty", append(pathParams(path), soap.Str("name", propName(k)), soap.Str("value", value))...)
			})
			if err == nil {
				err = wantOK("setSessionProperty", ok)
			}
			if err == nil {
				c.props[i] = value
			}
		case pick < sSetProp+sGetProp:
			var v string
			d = timed(c.tr, func() {
				v, err = c.ctx.CallText("getSessionProperty", append(pathParams(path), soap.Str("name", propName(k)))...)
			})
			if err == nil && v != c.props[i] {
				err = fmt.Errorf("getSessionProperty(%v, %s) = %q, set %q", path, propName(k), v, c.props[i])
			}
		default:
			var names []string
			d = timed(c.tr, func() { names, err = c.ctx.CallStrings("listSessionProperties", pathParams(path)...) })
			if err == nil {
				slices.Sort(names)
				if len(names) != sessProps || names[0] != propName(0) || names[sessProps-1] != propName(sessProps-1) {
					err = fmt.Errorf("listSessionProperties(%v) = %v", path, names)
				}
			}
		}
	case pick < sSetProp+sGetProp+sListProps+sSessPair:
		path := sessionPath(c.id, c.rng.Intn(sessUsers), c.rng.Intn(sessProblems), 0)
		path[2] = fmt.Sprintf("scratch%d", c.n)
		var ok string
		d = timed(c.tr, func() { ok, err = c.ctx.CallText("createSessionContext", pathParams(path)...) })
		if err == nil {
			err = wantOK("createSessionContext", ok)
		}
		if err == nil {
			c.next = func() (time.Duration, error) {
				var ok string
				var err error
				d := timed(c.tr, func() { ok, err = c.ctx.CallText("removeSessionContext", pathParams(path)...) })
				if err == nil {
					err = wantOK("removeSessionContext", ok)
				}
				return d, err
			}
		}
	case pick < sSetProp+sGetProp+sListProps+sSessPair+sSvcPair:
		tm := c.m.tmodels[c.id][c.rng.Intn(sessOwnTModels)]
		var key string
		d = timed(c.tr, func() {
			key, err = c.uddi.SaveService(c.m.businessKey, fmt.Sprintf("c%d-transient-%d", c.id, c.n),
				"published and withdrawn in one session", "http://portal.example.org/ssp/ApplicationService", []string{tm})
		})
		if err == nil && key == "" {
			err = errors.New("saveService returned no key")
		}
		if err == nil {
			c.next = func() (time.Duration, error) {
				var err error
				d := timed(c.tr, func() { err = c.uddi.DeleteService(key) })
				return d, err
			}
		}
	case pick < sSetProp+sGetProp+sListProps+sSessPair+sSvcPair+sFind:
		var list []*uddi.BusinessService
		d = timed(c.tr, func() { list, err = c.uddi.FindServiceByTModel(c.m.tmodels[c.id][c.rng.Intn(sessOwnTModels)]) })
		if err == nil && len(list) != c.m.perTModel {
			err = fmt.Errorf("findServiceByTModel: %d services, preloaded %d", len(list), c.m.perTModel)
		}
	default:
		word := fmt.Sprintf("c%d-job%d", c.id, c.n)
		var out string
		d = timed(c.tr, func() { out, err = c.jobs.SubmitBatch(submitHosts[c.id], "-n 2 /bin/echo "+word) })
		if err == nil && out != word+"\n" {
			err = fmt.Errorf("submitBatch output %q, want %q", out, word+"\n")
		}
	}
	return d, err
}

func (session) endState(st *stack, clients []runner) (map[string]int64, error) {
	b := st.backends[0]
	m := st.model.(*sessionModel)
	businesses, services, tmodels := b.uddi.Counts()
	contexts := b.ctx.CountContexts()
	appends, bytes := b.walTotals()
	fp := map[string]int64{
		"uddi.businesses": int64(businesses), "uddi.services": int64(services), "uddi.tmodels": int64(tmodels),
		"contexts": int64(contexts), "wal.appends": appends, "wal.bytes": bytes,
	}
	if services != sessServices || contexts != m.contexts {
		return fp, fmt.Errorf("%d services and %d contexts after the run, preloaded %d and %d", services, contexts, sessServices, m.contexts)
	}
	for id, r := range clients {
		c := r.(*sessionClient)
		for i, want := range c.props {
			u, p, s, k := splitProp(i)
			got, err := b.ctx.GetProp(sessionPath(id, u, p, s), propName(k))
			if err != nil || got != want {
				return fp, fmt.Errorf("property %v/%s is %q (%v), the client set %q", sessionPath(id, u, p, s), propName(k), got, err, want)
			}
		}
	}
	return fp, nil
}
