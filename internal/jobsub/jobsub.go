// Package jobsub implements the job submission Web Services of Section
// 3.1, all three variants the paper describes:
//
//   - GlobusrunService (the SDSC flavour): a GSI-authenticated SOAP facade
//     over the grid gatekeeper, exposing "two different methods for job
//     execution, one that accepts the parameters of a job as a set of
//     plain strings and returns the results as a string, and one that
//     accepts an XML definition of a job" whose DTD "was designed to allow
//     multiple jobs to be included in a single XML string"; multi-job
//     requests execute sequentially.
//
//   - BatchJobService: "a method that takes string arguments that define
//     the host and batch scheduler commands to be run"; it parses those
//     strings and "uses the Globusrun job submission service previously
//     described to submit the job" — a Web Service using another Web
//     Service, the paper's service-composition demonstration.
//
//   - WebFlowBridgeService (the IU flavour): "a wrapper around a client
//     for the legacy CORBA-based WebFlow system", bridging SOAP to the
//     mini-ORB.
package jobsub

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/webflow"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// GlobusrunNS is the Globusrun service namespace.
const GlobusrunNS = "urn:gce:globusrun"

// GlobusrunContract returns the Globusrun WSDL interface.
func GlobusrunContract() *wsdl.Interface {
	return globusrunDef(nil, "").Interface()
}

// principalOf resolves the acting grid principal: the verified SAML
// principal when the SPP authenticates requests, else the configured
// default (unauthenticated deployments, e.g. the GCE testbed exercises).
func principalOf(ctx *core.Context, def string) string {
	if ctx.Principal != "" {
		return ctx.Principal
	}
	return def
}

// globusrunDef is the declarative Globusrun operation table bound to a
// grid. defaultPrincipal is used for unauthenticated calls; "" requires a
// verified principal on every call.
func globusrunDef(g *grid.Grid, defaultPrincipal string) *rpc.Def {
	fail := func(code, format string, a ...interface{}) error {
		return soap.NewPortalError("Globusrun", code, format, a...)
	}
	requirePrincipal := func(ctx *core.Context) (string, error) {
		p := principalOf(ctx, defaultPrincipal)
		if p == "" {
			return "", fail(soap.ErrCodeAuthFailed, "no authenticated principal and no default configured")
		}
		return p, nil
	}
	return &rpc.Def{
		Name: "Globusrun",
		NS:   GlobusrunNS,
		Doc:  "Secure, authenticated job execution on remote computational resources over the Grid.",
		Ops: []rpc.Op{
			{
				Name: "run",
				Doc:  "Runs one job described by plain strings; blocks and returns its output.",
				In:   []wsdl.Param{rpc.Str("host"), rpc.Str("rsl")},
				Out:  []wsdl.Param{rpc.Str("output")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					p, err := requirePrincipal(ctx)
					if err != nil {
						return nil, err
					}
					gk, err := g.Gatekeeper(in.Str("host"))
					if err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					job, err := gk.Run(p, in.Str("rsl"))
					if err != nil {
						return nil, fail(soap.ErrCodeJobFailed, "%v", err)
					}
					if job.State != grid.StateCompleted {
						return nil, fail(soap.ErrCodeJobFailed, "job %s: %s (%s)", job.ID, job.State, job.Reason)
					}
					return rpc.Ret(job.Result.Stdout), nil
				},
			},
			{
				Name: "runXML",
				Doc:  "Runs one or more jobs from an XML job request, sequentially, returning XML results.",
				In:   []wsdl.Param{rpc.XML("request")},
				Out:  []wsdl.Param{rpc.XML("results")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					p, err := requirePrincipal(ctx)
					if err != nil {
						return nil, err
					}
					req := in.XML("request")
					if req == nil {
						return nil, fail(soap.ErrCodeBadRequest, "missing job request document")
					}
					jobs, err := ParseJobRequest(req)
					if err != nil {
						return nil, fail(soap.ErrCodeBadRequest, "%v", err)
					}
					results := xmlutil.New("jobResults")
					// Sequential execution, as the paper specifies.
					for i, jr := range jobs {
						results.Add(runOne(g, p, i, jr))
					}
					return rpc.Ret(results), nil
				},
			},
			{
				Name: "submit",
				Doc:  "Submits one job asynchronously and returns its contact string.",
				In:   []wsdl.Param{rpc.Str("host"), rpc.Str("rsl")},
				Out:  []wsdl.Param{rpc.Str("contact")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					p, err := requirePrincipal(ctx)
					if err != nil {
						return nil, err
					}
					gk, err := g.Gatekeeper(in.Str("host"))
					if err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					contact, err := gk.Submit(p, in.Str("rsl"))
					if err != nil {
						return nil, fail(soap.ErrCodeJobFailed, "%v", err)
					}
					return rpc.Ret(contact), nil
				},
			},
			{
				Name:       "status",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("host"), rpc.Str("contact")},
				Out:        []wsdl.Param{rpc.Str("state")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					if _, err := requirePrincipal(ctx); err != nil {
						return nil, err
					}
					gk, err := g.Gatekeeper(in.Str("host"))
					if err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					job, err := gk.Status(in.Str("contact"))
					if err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					return rpc.Ret(string(job.State)), nil
				},
			},
		},
	}
}

// NewGlobusrunService builds the deployable Globusrun service over a grid
// from the declarative operation table. defaultPrincipal is used for
// unauthenticated calls; pass "" to require a verified principal on every
// call.
func NewGlobusrunService(g *grid.Grid, defaultPrincipal string) *core.Service {
	return globusrunDef(g, defaultPrincipal).MustBuild()
}

func runOne(g *grid.Grid, principal string, index int, jr JobRequest) *xmlutil.Element {
	el := xmlutil.New("jobResult").SetAttr("index", strconv.Itoa(index))
	fail := func(format string, a ...interface{}) *xmlutil.Element {
		el.AddText("state", string(grid.StateFailed))
		el.AddText("error", fmt.Sprintf(format, a...))
		return el
	}
	gk, err := g.Gatekeeper(jr.Host)
	if err != nil {
		return fail("%v", err)
	}
	job, err := gk.Run(principal, grid.FormatRSL(jr.Spec))
	if err != nil {
		return fail("%v", err)
	}
	el.AddText("state", string(job.State))
	el.AddText("jobID", job.ID)
	el.AddText("stdout", job.Result.Stdout)
	el.AddText("stderr", job.Result.Stderr)
	el.AddText("exitCode", strconv.Itoa(job.Result.ExitCode))
	if job.Reason != "" {
		el.AddText("error", job.Reason)
	}
	return el
}

// JobRequest is one job inside the XML multi-job DTD.
type JobRequest struct {
	// Host is the target machine.
	Host string
	// Spec is the job specification.
	Spec grid.JobSpec
}

// BuildJobRequest renders one or more job requests into the DTD's
// <jobRequest> document.
func BuildJobRequest(jobs []JobRequest) *xmlutil.Element {
	root := xmlutil.New("jobRequest")
	for _, jr := range jobs {
		j := xmlutil.New("job")
		j.AddText("host", jr.Host)
		j.AddText("executable", jr.Spec.Executable)
		for _, a := range jr.Spec.Args {
			j.AddText("argument", a)
		}
		if jr.Spec.Stdin != "" {
			j.AddText("stdin", jr.Spec.Stdin)
		}
		if jr.Spec.Queue != "" {
			j.AddText("queue", jr.Spec.Queue)
		}
		if jr.Spec.Nodes > 1 {
			j.AddText("count", strconv.Itoa(jr.Spec.Nodes))
		}
		if jr.Spec.WallTime > 0 {
			j.AddText("maxWallTime", strconv.Itoa(int(jr.Spec.WallTime/time.Minute)))
		}
		if jr.Spec.Name != "" {
			j.AddText("jobName", jr.Spec.Name)
		}
		root.Add(j)
	}
	return root
}

// ParseJobRequest parses a <jobRequest> document into its jobs.
func ParseJobRequest(root *xmlutil.Element) ([]JobRequest, error) {
	if root.Name != "jobRequest" {
		return nil, fmt.Errorf("jobsub: root element %q is not jobRequest", root.Name)
	}
	jobEls := root.ChildrenNamed("job")
	if len(jobEls) == 0 {
		return nil, fmt.Errorf("jobsub: request contains no jobs")
	}
	var out []JobRequest
	for i, j := range jobEls {
		jr := JobRequest{Host: j.ChildText("host")}
		if jr.Host == "" {
			return nil, fmt.Errorf("jobsub: job %d has no host", i)
		}
		jr.Spec.Executable = j.ChildText("executable")
		if jr.Spec.Executable == "" {
			return nil, fmt.Errorf("jobsub: job %d has no executable", i)
		}
		for _, a := range j.ChildrenNamed("argument") {
			jr.Spec.Args = append(jr.Spec.Args, a.Text)
		}
		jr.Spec.Stdin = j.ChildText("stdin")
		jr.Spec.Queue = j.ChildText("queue")
		jr.Spec.Name = j.ChildText("jobName")
		jr.Spec.Nodes = 1
		if c := j.Child("count"); c != nil {
			n, err := c.Int()
			if err != nil {
				return nil, fmt.Errorf("jobsub: job %d: bad count: %v", i, err)
			}
			jr.Spec.Nodes = n
		}
		if w := j.Child("maxWallTime"); w != nil {
			mins, err := w.Int()
			if err != nil {
				return nil, fmt.Errorf("jobsub: job %d: bad maxWallTime: %v", i, err)
			}
			jr.Spec.WallTime = time.Duration(mins) * time.Minute
		}
		out = append(out, jr)
	}
	return out, nil
}

// JobResult is one decoded entry of the XML results document.
type JobResult struct {
	// Index is the job's position in the request.
	Index int
	// State is the final lifecycle state.
	State grid.JobState
	// JobID is the scheduler ID (empty on pre-submission failure).
	JobID string
	// Stdout and Stderr are the captured streams.
	Stdout string
	Stderr string
	// ExitCode is the program exit status.
	ExitCode int
	// Error describes a failure.
	Error string
}

// ParseJobResults decodes the service's <jobResults> document.
func ParseJobResults(root *xmlutil.Element) ([]JobResult, error) {
	if root.Name != "jobResults" {
		return nil, fmt.Errorf("jobsub: root element %q is not jobResults", root.Name)
	}
	var out []JobResult
	for _, el := range root.ChildrenNamed("jobResult") {
		r := JobResult{
			State:  grid.JobState(el.ChildText("state")),
			JobID:  el.ChildText("jobID"),
			Stdout: el.ChildText("stdout"),
			Stderr: el.ChildText("stderr"),
			Error:  el.ChildText("error"),
		}
		r.Index, _ = strconv.Atoi(el.AttrDefault("index", "0"))
		if ec := el.Child("exitCode"); ec != nil {
			r.ExitCode, _ = ec.Int()
		}
		out = append(out, r)
	}
	return out, nil
}

// GlobusrunClient is a typed proxy to a Globusrun service.
type GlobusrunClient struct {
	c *core.Client
}

// NewGlobusrunClient binds to a Globusrun endpoint.
func NewGlobusrunClient(t soap.Transport, endpoint string) *GlobusrunClient {
	return &GlobusrunClient{c: core.NewClient(t, endpoint, GlobusrunContract())}
}

// Use adds a client interceptor (e.g. a SAML-attaching session).
func (cl *GlobusrunClient) Use(i core.ClientInterceptor) *GlobusrunClient {
	cl.c.Use(i)
	return cl
}

// Run executes one job synchronously and returns its stdout.
func (cl *GlobusrunClient) Run(host, rsl string) (string, error) {
	return cl.c.CallText("run", soap.Str("host", host), soap.Str("rsl", rsl))
}

// RunXML executes a multi-job request and returns the decoded results.
func (cl *GlobusrunClient) RunXML(jobs []JobRequest) ([]JobResult, error) {
	var out []JobResult
	err := cl.c.CallXML(context.TODO(), "runXML", func(el *xmlutil.Element) error {
		var err error
		out, err = ParseJobResults(el)
		return err
	}, soap.XMLDoc("request", BuildJobRequest(jobs)))
	return out, err
}

// Submit starts a job asynchronously.
func (cl *GlobusrunClient) Submit(host, rsl string) (string, error) {
	return cl.c.CallText("submit", soap.Str("host", host), soap.Str("rsl", rsl))
}

// Status polls a job by contact.
func (cl *GlobusrunClient) Status(host, contact string) (grid.JobState, error) {
	s, err := cl.c.CallText("status", soap.Str("host", host), soap.Str("contact", contact))
	return grid.JobState(s), err
}

// --- Batch job service (service composition) ---------------------------------

// BatchJobNS is the batch job service namespace.
const BatchJobNS = "urn:gce:batchjob"

// BatchJobContract returns the batch job submission interface: one method
// taking the host and scheduler command strings.
func BatchJobContract() *wsdl.Interface {
	return batchJobDef(nil).Interface()
}

// batchJobDef is the declarative batch job operation table delegating to
// a Globusrun client — the inter-service call the paper demonstrates.
func batchJobDef(globusrun *GlobusrunClient) *rpc.Def {
	return &rpc.Def{
		Name: "BatchJobSubmission",
		NS:   BatchJobNS,
		Doc:  "Submits batch jobs described by scheduler command strings; delegates to the Globusrun Web Service.",
		Ops: []rpc.Op{{
			Name: "submitBatch",
			Doc:  "Parses host and scheduler command strings and runs the job via Globusrun.",
			In:   []wsdl.Param{rpc.Str("host"), rpc.Str("command")},
			Out:  []wsdl.Param{rpc.Str("output")},
			Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
				rsl, err := ParseSchedulerCommand(in.Str("command"))
				if err != nil {
					return nil, soap.NewPortalError("BatchJobSubmission", soap.ErrCodeBadRequest, "%v", err)
				}
				out, err := globusrun.Run(in.Str("host"), rsl)
				if err != nil {
					if pe := soap.AsPortalError(err); pe != nil {
						return nil, pe
					}
					return nil, soap.NewPortalError("BatchJobSubmission", soap.ErrCodeJobFailed, "%v", err)
				}
				return rpc.Ret(out), nil
			},
		}},
	}
}

// ParseSchedulerCommand parses a qsub/bsub-flavoured command string of the
// form "[-q queue] [-n nodes] [-w minutes] executable [args...]" into RSL.
func ParseSchedulerCommand(command string) (string, error) {
	fields := strings.Fields(command)
	spec := grid.JobSpec{Nodes: 1}
	i := 0
	for i < len(fields) {
		switch fields[i] {
		case "-q":
			if i+1 >= len(fields) {
				return "", fmt.Errorf("jobsub: -q requires a queue name")
			}
			spec.Queue = fields[i+1]
			i += 2
		case "-n":
			if i+1 >= len(fields) {
				return "", fmt.Errorf("jobsub: -n requires a node count")
			}
			n, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return "", fmt.Errorf("jobsub: bad node count %q", fields[i+1])
			}
			spec.Nodes = n
			i += 2
		case "-w":
			if i+1 >= len(fields) {
				return "", fmt.Errorf("jobsub: -w requires minutes")
			}
			mins, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return "", fmt.Errorf("jobsub: bad walltime %q", fields[i+1])
			}
			spec.WallTime = time.Duration(mins) * time.Minute
			i += 2
		default:
			spec.Executable = fields[i]
			spec.Args = fields[i+1:]
			i = len(fields)
		}
	}
	if spec.Executable == "" {
		return "", fmt.Errorf("jobsub: command %q has no executable", command)
	}
	return grid.FormatRSL(spec), nil
}

// NewBatchJobService builds the batch job service from the declarative
// operation table.
func NewBatchJobService(globusrun *GlobusrunClient) *core.Service {
	return batchJobDef(globusrun).MustBuild()
}

// BatchJobClient is a typed proxy to the batch job service.
type BatchJobClient struct {
	c *core.Client
}

// NewBatchJobClient binds to a batch job service endpoint.
func NewBatchJobClient(t soap.Transport, endpoint string) *BatchJobClient {
	return &BatchJobClient{c: core.NewClient(t, endpoint, BatchJobContract())}
}

// SubmitBatch submits a scheduler command string.
func (cl *BatchJobClient) SubmitBatch(host, command string) (string, error) {
	return cl.c.CallText("submitBatch", soap.Str("host", host), soap.Str("command", command))
}

// --- WebFlow bridge service (IU flavour) --------------------------------------

// WebFlowBridgeNS is the IU bridge service namespace.
const WebFlowBridgeNS = "urn:gce:webflow-jobsub"

// WebFlowBridgeContract returns the IU job submission interface: the SOAP
// server methods "wrapped the existing WebFlow methods".
func WebFlowBridgeContract() *wsdl.Interface {
	return webflowBridgeDef(nil, "").Interface()
}

// webflowBridgeDef is the declarative SOAP-to-ORB bridge table forwarding
// to a resolved WebFlow module reference.
func webflowBridgeDef(ref *webflow.ObjectRef, defaultPrincipal string) *rpc.Def {
	fail := func(format string, a ...interface{}) error {
		return soap.NewPortalError("WebFlowJobSubmission", soap.ErrCodeJobFailed, format, a...)
	}
	return &rpc.Def{
		Name: "WebFlowJobSubmission",
		NS:   WebFlowBridgeNS,
		Doc:  "SOAP wrapper around the legacy CORBA-based WebFlow job submission module.",
		Ops: []rpc.Op{
			{
				Name: "runJob",
				In:   []wsdl.Param{rpc.Str("host"), rpc.Str("rsl")},
				Out:  []wsdl.Param{rpc.Str("output")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					p := principalOf(ctx, defaultPrincipal)
					res, err := ref.Invoke("runJob", p, in.Str("host"), in.Str("rsl"))
					if err != nil {
						return nil, fail("%v", err)
					}
					if len(res) < 2 || res[0] != string(grid.StateCompleted) {
						return nil, fail("webflow job state %v", res)
					}
					return rpc.Ret(res[1]), nil
				},
			},
			{
				Name: "submitJob",
				In:   []wsdl.Param{rpc.Str("host"), rpc.Str("rsl")},
				Out:  []wsdl.Param{rpc.Str("contact")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					p := principalOf(ctx, defaultPrincipal)
					res, err := ref.Invoke("submitJob", p, in.Str("host"), in.Str("rsl"))
					if err != nil {
						return nil, fail("%v", err)
					}
					return rpc.Ret(res[0]), nil
				},
			},
		},
	}
}

// NewWebFlowBridgeService builds the SOAP-to-ORB bridge: it initialises a
// client ORB, resolves the WebFlow job submission module, and builds the
// descriptor table forwarding to it.
func NewWebFlowBridgeService(orb *webflow.ORB, moduleIOR, defaultPrincipal string) (*core.Service, error) {
	ref, err := orb.Resolve(moduleIOR)
	if err != nil {
		return nil, err
	}
	return webflowBridgeDef(ref, defaultPrincipal).Build()
}
