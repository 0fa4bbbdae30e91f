// Package batchscript implements the interoperable Batch Script Generation
// service of Section 3.4 — "the crucial test of Web Services for portals".
// Exactly as the paper describes, the two groups "agreed to a common
// service interface, implemented it separately with support for different
// queuing systems, entered information into a UDDI repository and developed
// clients that could list services supported by each group and search for
// services that support particular queuing systems. Scripts could then be
// created through either service."
//
// Contract() is the agreed WSDL interface. NewIUGenerator (PBS and GRD) and
// NewSDSCGenerator (LSF and NQS) are the two independent implementations.
// Generated scripts round-trip through the grid package's scheduler dialect
// parsers, which is the property test tying the generator to the substrate.
package batchscript

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/contextmgr"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

// ServiceNS is the agreed service namespace. Both implementations use it;
// diverging from it is an interoperability break CheckCompatible catches.
const ServiceNS = "urn:gce:batchscript"

// TModelName is the UDDI tModel under which implementations register.
const TModelName = "gce:BatchScriptGenerator"

// Request carries the parameters of one script generation.
type Request struct {
	// Scheduler is the queuing system dialect.
	Scheduler grid.SchedulerKind
	// JobName names the job.
	JobName string
	// Executable is the program path.
	Executable string
	// Arguments are the program arguments.
	Arguments []string
	// Stdin optionally redirects input from a file.
	Stdin string
	// Queue optionally names the target queue.
	Queue string
	// Nodes is the processor count.
	Nodes int
	// WallTime is the requested wallclock limit.
	WallTime time.Duration
}

// generateParams is the agreed parameter list of generateScript, shared
// by the standalone and context-coupled descriptor tables.
func generateParams() []wsdl.Param {
	return []wsdl.Param{
		rpc.Str("scheduler"), rpc.Str("jobName"), rpc.Str("executable"),
		rpc.Strs("arguments"), rpc.Str("stdin"), rpc.Str("queue"),
		rpc.Int("nodes"), rpc.Int("wallTimeSeconds"),
	}
}

// def is the declarative operation table of the agreed interface bound to
// one group's generator.
func def(g *Generator) *rpc.Def {
	return &rpc.Def{
		Name: "BatchScriptGenerator",
		NS:   ServiceNS,
		Doc:  "Generates batch queuing-system scripts (the GCE common interface).",
		Ops: []rpc.Op{
			{
				Name:       "listSchedulers",
				Idempotent: true,
				Doc:        "Lists the queuing systems this implementation supports.",
				Out:        []wsdl.Param{rpc.Strs("schedulers")},
				Handle: func(_ *core.Context, _ rpc.Args) ([]interface{}, error) {
					return rpc.Ret(g.SchedulerNames()), nil
				},
			},
			{
				Name:       "supportsScheduler",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("scheduler")},
				Out:        []wsdl.Param{rpc.Bool("supported")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					return rpc.Ret(g.Supports(grid.SchedulerKind(strings.ToUpper(in.Str("scheduler"))))), nil
				},
			},
			{
				Name:       "generateScript",
				Idempotent: true,
				Doc:        "Generates a batch script for the given scheduler.",
				In:         generateParams(),
				Out:        []wsdl.Param{rpc.Str("script")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					script, err := g.Generate(requestFromArgs(in))
					if err != nil {
						return nil, soap.NewPortalError("BatchScriptGenerator", soap.ErrCodeBadRequest, "%v", err)
					}
					return rpc.Ret(script), nil
				},
			},
		},
	}
}

// Contract returns the agreed batch script generation interface.
func Contract() *wsdl.Interface {
	return def(nil).Interface()
}

// Generator is one group's implementation: a set of supported dialects and
// a house style for the emitted script header.
type Generator struct {
	// Group names the implementing organisation (appears in the script
	// comment header).
	Group string
	// Supported lists the queuing systems this generator handles.
	Supported []grid.SchedulerKind
}

// NewIUGenerator returns the IU implementation supporting PBS and GRD.
func NewIUGenerator() *Generator {
	return &Generator{Group: "IU Gateway", Supported: []grid.SchedulerKind{grid.PBS, grid.GRD}}
}

// NewSDSCGenerator returns the SDSC implementation supporting LSF and NQS.
func NewSDSCGenerator() *Generator {
	return &Generator{Group: "SDSC HotPage", Supported: []grid.SchedulerKind{grid.LSF, grid.NQS}}
}

// Supports reports whether the generator handles a dialect.
func (g *Generator) Supports(kind grid.SchedulerKind) bool {
	for _, k := range g.Supported {
		if k == kind {
			return true
		}
	}
	return false
}

// SchedulerNames returns the supported dialect names, sorted.
func (g *Generator) SchedulerNames() []string {
	out := make([]string, 0, len(g.Supported))
	for _, k := range g.Supported {
		out = append(out, string(k))
	}
	sort.Strings(out)
	return out
}

// Generate produces a batch script for the request.
func (g *Generator) Generate(req Request) (string, error) {
	if !g.Supports(req.Scheduler) {
		return "", fmt.Errorf("batchscript: %s does not support scheduler %s (supported: %s)",
			g.Group, req.Scheduler, strings.Join(g.SchedulerNames(), ", "))
	}
	if req.Executable == "" {
		return "", fmt.Errorf("batchscript: request has no executable")
	}
	if req.Nodes <= 0 {
		req.Nodes = 1
	}
	if req.JobName == "" {
		req.JobName = "portaljob"
	}
	var b strings.Builder
	b.WriteString("#!/bin/sh\n")
	fmt.Fprintf(&b, "# Generated by the %s batch script service\n", g.Group)
	switch req.Scheduler {
	case grid.PBS:
		fmt.Fprintf(&b, "#PBS -N %s\n", req.JobName)
		if req.Queue != "" {
			fmt.Fprintf(&b, "#PBS -q %s\n", req.Queue)
		}
		directives := []string{fmt.Sprintf("nodes=%d", req.Nodes)}
		if req.WallTime > 0 {
			directives = append(directives, "walltime="+grid.FormatHMS(req.WallTime))
		}
		fmt.Fprintf(&b, "#PBS -l %s\n", strings.Join(directives, ","))
	case grid.LSF:
		fmt.Fprintf(&b, "#BSUB -J %s\n", req.JobName)
		if req.Queue != "" {
			fmt.Fprintf(&b, "#BSUB -q %s\n", req.Queue)
		}
		fmt.Fprintf(&b, "#BSUB -n %d\n", req.Nodes)
		if req.WallTime > 0 {
			fmt.Fprintf(&b, "#BSUB -W %d\n", int(req.WallTime/time.Minute))
		}
	case grid.NQS:
		fmt.Fprintf(&b, "#QSUB -r %s\n", req.JobName)
		if req.Queue != "" {
			fmt.Fprintf(&b, "#QSUB -q %s\n", req.Queue)
		}
		fmt.Fprintf(&b, "#QSUB -lP %d\n", req.Nodes)
		if req.WallTime > 0 {
			fmt.Fprintf(&b, "#QSUB -lT %d\n", int(req.WallTime/time.Second))
		}
	case grid.GRD:
		fmt.Fprintf(&b, "#$ -N %s\n", req.JobName)
		if req.Queue != "" {
			fmt.Fprintf(&b, "#$ -q %s\n", req.Queue)
		}
		if req.Nodes > 1 {
			fmt.Fprintf(&b, "#$ -pe mpi %d\n", req.Nodes)
		}
		if req.WallTime > 0 {
			fmt.Fprintf(&b, "#$ -l h_rt=%d\n", int(req.WallTime/time.Second))
		}
	default:
		return "", fmt.Errorf("batchscript: unknown scheduler %q", req.Scheduler)
	}
	b.WriteString(req.Executable)
	for _, a := range req.Arguments {
		b.WriteByte(' ')
		b.WriteString(a)
	}
	if req.Stdin != "" {
		b.WriteString(" < " + req.Stdin)
	}
	b.WriteByte('\n')
	return b.String(), nil
}

// NewService deploys a generator behind the agreed contract, built from
// the declarative operation table.
func NewService(g *Generator) *core.Service {
	return def(g).MustBuild()
}

func requestFromArgs(in rpc.Args) Request {
	return Request{
		Scheduler:  grid.SchedulerKind(strings.ToUpper(in.Str("scheduler"))),
		JobName:    in.Str("jobName"),
		Executable: in.Str("executable"),
		Arguments:  in.Strings("arguments"),
		Stdin:      in.Str("stdin"),
		Queue:      in.Str("queue"),
		Nodes:      in.Int("nodes"),
		WallTime:   time.Duration(in.Int("wallTimeSeconds")) * time.Second,
	}
}

// Client is a typed proxy to any implementation of the agreed contract.
type Client struct {
	c *core.Client
}

// NewClient binds to a batch script service endpoint.
func NewClient(t soap.Transport, endpoint string) *Client {
	return &Client{c: core.NewClient(t, endpoint, Contract())}
}

// Use adds a client interceptor (e.g. a SAML-attaching session).
func (cl *Client) Use(i core.ClientInterceptor) *Client {
	cl.c.Use(i)
	return cl
}

// BindWSDL binds by parsing a provider's WSDL document, verifying it is
// compatible with the agreed contract first — the discipline that made the
// IU and SDSC implementations interchangeable.
func BindWSDL(t soap.Transport, wsdlDoc string) (*Client, error) {
	svc, err := wsdl.Parse(wsdlDoc)
	if err != nil {
		return nil, err
	}
	if problems := wsdl.CheckCompatible(Contract(), svc.Interface); len(problems) > 0 {
		return nil, fmt.Errorf("batchscript: %s is not compatible with the agreed interface: %s",
			svc.Name, problems[0])
	}
	return &Client{c: core.NewClient(t, svc.Endpoint, Contract())}, nil
}

// ListSchedulers lists the provider's supported queuing systems.
func (cl *Client) ListSchedulers() ([]string, error) {
	return cl.c.CallStrings("listSchedulers")
}

// SupportsScheduler asks the provider about one queuing system.
func (cl *Client) SupportsScheduler(name string) (bool, error) {
	resp, release, err := cl.c.Call(context.TODO(), "supportsScheduler", soap.Str("scheduler", name))
	if err != nil {
		return false, err
	}
	defer release()
	return resp.ReturnText("supported") == "true", nil
}

// GenerateScript requests a script.
func (cl *Client) GenerateScript(req Request) (string, error) {
	return cl.c.CallText("generateScript",
		soap.Str("scheduler", string(req.Scheduler)),
		soap.Str("jobName", req.JobName),
		soap.Str("executable", req.Executable),
		soap.StrArray("arguments", req.Arguments),
		soap.Str("stdin", req.Stdin),
		soap.Str("queue", req.Queue),
		soap.Int("nodes", req.Nodes),
		soap.Int("wallTimeSeconds", int(req.WallTime/time.Second)))
}

// PublishUDDI registers an implementation in a UDDI registry with the
// string-convention capability description, returning the service key. The
// tModel named TModelName is created if absent.
func PublishUDDI(reg *uddi.Registry, businessKey, serviceName, endpoint string, g *Generator) (string, error) {
	tm, ok := reg.TModelByName(TModelName)
	if !ok {
		var err error
		tm, err = reg.SaveTModel(uddi.TModel{
			Name:        TModelName,
			Description: "Common batch script generation interface agreed through the GCE",
			OverviewURL: endpoint + "?wsdl",
		})
		if err != nil {
			return "", err
		}
	}
	svc, err := reg.SaveService(uddi.BusinessService{
		BusinessKey: businessKey,
		Name:        serviceName,
		Description: uddi.DescribeCapabilities(g.Group+" batch script generation.", g.SchedulerNames()),
		Bindings: []uddi.BindingTemplate{{
			AccessPoint: endpoint,
			TModelKeys:  []string{tm.Key},
		}},
	})
	if err != nil {
		return "", err
	}
	return svc.Key, nil
}

// --- Context-coupled variant (the S3.3 overhead subject) ----------------------

// CoupledNS is the namespace of the context-coupled service variant.
const CoupledNS = "urn:gce:batchscript-coupled"

// CoupledContract is the generator as Gateway originally built it:
// "initially tightly integrated with the context manager and job
// submission services" — every call must name a user/problem/session
// context, and the generated script is recorded there. Stateless callers
// (HotPage users) must create placeholder contexts first, which is the
// "unnecessary overhead" the S3.3 benchmark measures.
func CoupledContract() *wsdl.Interface {
	return coupledDef(nil, nil).Interface()
}

// coupledDef is the context-coupled descriptor table: the agreed
// generateScript operation prefixed with the mandatory context path.
func coupledDef(g *Generator, store *contextmgr.Store) *rpc.Def {
	return &rpc.Def{
		Name: "ContextCoupledScriptGenerator",
		NS:   CoupledNS,
		Doc:  "Batch script generation tightly integrated with the context manager (legacy Gateway design).",
		Ops: []rpc.Op{{
			Name: "generateScript",
			Doc:  "Generates a batch script for the given scheduler.",
			In:   append(rpc.StrParams("user", "problem", "session"), generateParams()...),
			Out:  []wsdl.Param{rpc.Str("script")},
			Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
				path := []string{in.Str("user"), in.Str("problem"), in.Str("session")}
				if !store.Exists(path) {
					return nil, soap.NewPortalError("ContextCoupledScriptGenerator", soap.ErrCodeNoSuchResource,
						"no session context %s: stateless callers must create a placeholder context first",
						strings.Join(path, "/"))
				}
				script, err := g.Generate(requestFromArgs(in))
				if err != nil {
					return nil, soap.NewPortalError("ContextCoupledScriptGenerator", soap.ErrCodeBadRequest, "%v", err)
				}
				key := "script-" + strconv.Itoa(int(time.Now().UnixNano()%1e9))
				if err := store.SetProp(path, key, script); err != nil {
					return nil, soap.NewPortalError("ContextCoupledScriptGenerator", soap.ErrCodeInternal, "%v", err)
				}
				return rpc.Ret(script), nil
			},
		}},
	}
}

// NewCoupledService deploys the context-coupled generator: the script is
// stored as a session property, and the session context must exist.
func NewCoupledService(g *Generator, store *contextmgr.Store) *core.Service {
	return coupledDef(g, store).MustBuild()
}
