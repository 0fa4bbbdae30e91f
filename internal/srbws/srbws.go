// Package srbws implements the SRB Web Services of Section 3.2: a SOAP
// facade over the Storage Resource Broker exposing exactly the methods the
// paper's Python trial exposed — ls, cat, get, put, and xml_call. The get
// and put methods "transfer a file between an SRB collection and the client
// by simply streaming the file as a string. This transfer mechanism does
// not scale well, and was only used as a proof of concept" — the S3.2
// benchmark quantifies that; the chunked stat/getChunk/putChunk extension
// is the ablation showing what bounded-memory framing buys.
//
// The xml_call method "allows the client to create a single request string
// consisting of multiple SRB commands expressed in XML and sent to the Web
// Service using a single connection"; commands execute sequentially with
// per-command status, like the paper's service.
package srbws

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"strings"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/srb"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// ServiceNS is the SRB service namespace.
const ServiceNS = "urn:gce:srb"

// def is the declarative operation table of the SRB facade bound to one
// broker. defaultUser is the principal for unauthenticated calls ("" to
// require authentication).
func def(b *srb.Broker, defaultUser string) *rpc.Def {
	userOf := func(ctx *core.Context) (string, error) {
		if ctx.Principal != "" {
			return ctx.Principal, nil
		}
		if defaultUser == "" {
			return "", soap.NewPortalError("SRBService", soap.ErrCodeAuthFailed,
				"GSI authentication required")
		}
		return defaultUser, nil
	}
	return &rpc.Def{
		Name: "SRBService",
		NS:   ServiceNS,
		Doc:  "SOAP interface to the Storage Resource Broker (GSI authenticated).",
		Ops: []rpc.Op{
			{
				Name:       "ls",
				Idempotent: true,
				Doc:        "Returns the directory listing of an SRB collection.",
				In:         []wsdl.Param{rpc.Str("collection")},
				Out:        []wsdl.Param{rpc.XML("entries")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					user, err := userOf(ctx)
					if err != nil {
						return nil, err
					}
					entries, err := b.Sls(user, in.Str("collection"))
					if err != nil {
						return nil, mapError(err)
					}
					return rpc.Ret(EntriesElement(entries)), nil
				},
			},
			{
				Name:       "cat",
				Idempotent: true,
				Doc:        "Returns the contents of a file in the SRB collection.",
				In:         []wsdl.Param{rpc.Str("path")},
				Out:        []wsdl.Param{rpc.Str("contents")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					user, err := userOf(ctx)
					if err != nil {
						return nil, err
					}
					data, err := b.Scat(user, in.Str("path"))
					if err != nil {
						return nil, mapError(err)
					}
					return rpc.Ret(data), nil
				},
			},
			{
				Name:       "get",
				Idempotent: true,
				Doc:        "Transfers a file to the client by streaming it as one string (proof of concept).",
				In:         []wsdl.Param{rpc.Str("path")},
				Out:        []wsdl.Param{rpc.Str("data")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					user, err := userOf(ctx)
					if err != nil {
						return nil, err
					}
					data, err := b.Sget(user, in.Str("path"))
					if err != nil {
						return nil, mapError(err)
					}
					return rpc.Ret(data), nil
				},
			},
			{
				Name: "put",
				Doc:  "Transfers a file from the client by streaming it as one string (proof of concept).",
				In:   []wsdl.Param{rpc.Str("path"), rpc.Str("data"), rpc.Str("resource")},
				Out:  []wsdl.Param{rpc.Bool("stored")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					user, err := userOf(ctx)
					if err != nil {
						return nil, err
					}
					if err := b.Sput(user, in.Str("path"), in.Str("data"), in.Str("resource")); err != nil {
						return nil, mapError(err)
					}
					return rpc.Ret(true), nil
				},
			},
			{
				Name: "xmlCall",
				Doc:  "Executes multiple SRB commands from one XML request over a single connection.",
				In:   []wsdl.Param{rpc.XML("request")},
				Out:  []wsdl.Param{rpc.XML("results")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					user, err := userOf(ctx)
					if err != nil {
						return nil, err
					}
					req := in.XML("request")
					if req == nil || req.Name != "srbRequest" {
						return nil, soap.NewPortalError("SRBService", soap.ErrCodeBadRequest, "missing srbRequest document")
					}
					results := xmlutil.New("srbResults")
					for i, cmd := range req.ChildrenNamed("command") {
						results.Add(execCommand(b, user, i, cmd))
					}
					return rpc.Ret(results), nil
				},
			},
			{
				Name:       "stat",
				Idempotent: true,
				Doc:        "Returns a file's size, enabling chunked transfer (scalability extension).",
				In:         []wsdl.Param{rpc.Str("path")},
				Out:        []wsdl.Param{rpc.Int("size")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					user, err := userOf(ctx)
					if err != nil {
						return nil, err
					}
					size, err := b.Size(user, in.Str("path"))
					if err != nil {
						return nil, mapError(err)
					}
					return rpc.Ret(size), nil
				},
			},
			{
				Name:       "getChunk",
				Idempotent: true,
				Doc:        "Reads one bounded chunk of a file (scalability extension).",
				In:         []wsdl.Param{rpc.Str("path"), rpc.Int("offset"), rpc.Int("size")},
				Out:        []wsdl.Param{rpc.Str("data")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					user, err := userOf(ctx)
					if err != nil {
						return nil, err
					}
					data, err := b.SgetRange(user, in.Str("path"), in.Int("offset"), in.Int("size"))
					if err != nil {
						if strings.Contains(err.Error(), "bad range") {
							return nil, soap.NewPortalError("SRBService", soap.ErrCodeBadRequest, "%v", err)
						}
						return nil, mapError(err)
					}
					return rpc.Ret(data), nil
				},
			},
			{
				Name: "putChunk",
				Doc:  "Appends one bounded chunk to a file (scalability extension).",
				In:   []wsdl.Param{rpc.Str("path"), rpc.Int("offset"), rpc.Str("data"), rpc.Str("resource")},
				Out:  []wsdl.Param{rpc.Bool("stored")},
				Handle: func(ctx *core.Context, in rpc.Args) ([]interface{}, error) {
					user, err := userOf(ctx)
					if err != nil {
						return nil, err
					}
					path, off := in.Str("path"), in.Int("offset")
					existing := ""
					if off > 0 {
						var err error
						existing, err = b.Sget(user, path)
						if err != nil {
							return nil, mapError(err)
						}
						if off != len(existing) {
							return nil, soap.NewPortalError("SRBService", soap.ErrCodeBadRequest,
								"chunk offset %d does not match current size %d", off, len(existing))
						}
					}
					if err := b.Sput(user, path, existing+in.Str("data"), in.Str("resource")); err != nil {
						return nil, mapError(err)
					}
					return rpc.Ret(true), nil
				},
			},
		},
	}
}

// Contract returns the SRB Web Services WSDL interface.
func Contract() *wsdl.Interface {
	return def(nil, "").Interface()
}

// mapError converts broker errors to portal errors with the standard codes
// (AccessDenied, NoSuchResource, ResourceFull).
func mapError(err error) *soap.PortalError {
	var ae *srb.AccessError
	switch {
	case errors.As(err, &ae):
		return soap.NewPortalError("SRBService", soap.ErrCodeAccessDenied, "%v", err)
	case err != nil && containsFull(err.Error()):
		return soap.NewPortalError("SRBService", soap.ErrCodeResourceFull, "%v", err)
	default:
		return soap.NewPortalError("SRBService", soap.ErrCodeNoSuchResource, "%v", err)
	}
}

func containsFull(msg string) bool {
	for i := 0; i+4 <= len(msg); i++ {
		if msg[i:i+4] == "full" {
			return true
		}
	}
	return false
}

// EntriesElement renders a listing for the wire.
func EntriesElement(entries []srb.Entry) *xmlutil.Element {
	root := xmlutil.New("entries")
	for _, e := range entries {
		el := xmlutil.New("entry").
			SetAttr("name", e.Name).
			SetAttr("size", strconv.Itoa(e.Size)).
			SetAttr("owner", e.Owner)
		if e.IsCollection {
			el.SetAttr("type", "collection")
		} else {
			el.SetAttr("type", "dataObject").SetAttr("resource", e.Resource)
		}
		root.Add(el)
	}
	return root
}

// EntriesFromElement parses a wire listing.
func EntriesFromElement(root *xmlutil.Element) []srb.Entry {
	var out []srb.Entry
	for _, el := range root.ChildrenNamed("entry") {
		e := srb.Entry{
			Name:     el.AttrDefault("name", ""),
			Owner:    el.AttrDefault("owner", ""),
			Resource: el.AttrDefault("resource", ""),
		}
		e.Size, _ = strconv.Atoi(el.AttrDefault("size", "0"))
		e.IsCollection = el.AttrDefault("type", "") == "collection"
		out = append(out, e)
	}
	return out
}

// NewService builds the deployable SRB service from the declarative
// operation table. defaultUser is the principal for unauthenticated calls
// ("" to require authentication).
func NewService(b *srb.Broker, defaultUser string) *core.Service {
	return def(b, defaultUser).MustBuild()
}

// execCommand runs one xml_call command, reporting status in-band.
func execCommand(b *srb.Broker, user string, index int, cmd *xmlutil.Element) *xmlutil.Element {
	name := cmd.AttrDefault("name", "")
	var cmdArgs []string
	for _, a := range cmd.ChildrenNamed("arg") {
		cmdArgs = append(cmdArgs, a.Text)
	}
	result := xmlutil.New("result").
		SetAttr("index", strconv.Itoa(index)).
		SetAttr("command", name)
	fail := func(err error) *xmlutil.Element {
		result.SetAttr("status", "error")
		result.AddText("error", err.Error())
		return result
	}
	need := func(n int) bool { return len(cmdArgs) >= n }
	switch name {
	case "ls":
		if !need(1) {
			return fail(fmt.Errorf("ls requires a collection argument"))
		}
		entries, err := b.Sls(user, cmdArgs[0])
		if err != nil {
			return fail(err)
		}
		result.SetAttr("status", "ok")
		result.Add(EntriesElement(entries))
	case "cat", "get":
		if !need(1) {
			return fail(fmt.Errorf("%s requires a path argument", name))
		}
		data, err := b.Sget(user, cmdArgs[0])
		if err != nil {
			return fail(err)
		}
		result.SetAttr("status", "ok")
		result.AddText("data", data)
	case "put":
		if !need(2) {
			return fail(fmt.Errorf("put requires path and data arguments"))
		}
		resource := ""
		if len(cmdArgs) > 2 {
			resource = cmdArgs[2]
		}
		if err := b.Sput(user, cmdArgs[0], cmdArgs[1], resource); err != nil {
			return fail(err)
		}
		result.SetAttr("status", "ok")
	case "mkdir":
		if !need(1) {
			return fail(fmt.Errorf("mkdir requires a path argument"))
		}
		if err := b.Mkdir(user, cmdArgs[0]); err != nil {
			return fail(err)
		}
		result.SetAttr("status", "ok")
	case "rm":
		if !need(1) {
			return fail(fmt.Errorf("rm requires a path argument"))
		}
		if err := b.Srm(user, cmdArgs[0]); err != nil {
			return fail(err)
		}
		result.SetAttr("status", "ok")
	default:
		return fail(fmt.Errorf("unknown SRB command %q", name))
	}
	return result
}

// Command is one xml_call command for request building.
type Command struct {
	// Name is the command: ls, cat, get, put, mkdir, rm.
	Name string
	// Args are the positional arguments.
	Args []string
}

// BuildRequest renders commands into an srbRequest document.
func BuildRequest(cmds []Command) *xmlutil.Element {
	root := xmlutil.New("srbRequest")
	for _, c := range cmds {
		el := xmlutil.New("command").SetAttr("name", c.Name)
		for _, a := range c.Args {
			el.AddText("arg", a)
		}
		root.Add(el)
	}
	return root
}

// CommandResult is one decoded xml_call result.
type CommandResult struct {
	// Index is the command position.
	Index int
	// Command is the command name.
	Command string
	// OK reports success.
	OK bool
	// Error holds the failure message when !OK.
	Error string
	// Data holds cat/get output.
	Data string
	// Entries holds ls output.
	Entries []srb.Entry
}

// ParseResults decodes an srbResults document.
func ParseResults(root *xmlutil.Element) ([]CommandResult, error) {
	if root.Name != "srbResults" {
		return nil, fmt.Errorf("srbws: root element %q is not srbResults", root.Name)
	}
	var out []CommandResult
	for _, el := range root.ChildrenNamed("result") {
		r := CommandResult{
			Command: el.AttrDefault("command", ""),
			OK:      el.AttrDefault("status", "") == "ok",
			Error:   el.ChildText("error"),
			Data:    el.ChildText("data"),
		}
		r.Index, _ = strconv.Atoi(el.AttrDefault("index", "0"))
		if entries := el.Child("entries"); entries != nil {
			r.Entries = EntriesFromElement(entries)
		}
		out = append(out, r)
	}
	return out, nil
}

// Client is a typed proxy to the SRB service.
type Client struct {
	c *core.Client
}

// NewClient binds to an SRB service endpoint.
func NewClient(t soap.Transport, endpoint string) *Client {
	return &Client{c: core.NewClient(t, endpoint, Contract())}
}

// Use adds a client interceptor (e.g. SAML session).
func (cl *Client) Use(i core.ClientInterceptor) *Client {
	cl.c.Use(i)
	return cl
}

// Ls lists a collection.
func (cl *Client) Ls(collection string) ([]srb.Entry, error) {
	var out []srb.Entry
	err := cl.c.CallXML(context.TODO(), "ls", func(el *xmlutil.Element) error {
		out = EntriesFromElement(el)
		return nil
	}, soap.Str("collection", collection))
	return out, err
}

// Cat returns a file's contents.
func (cl *Client) Cat(path string) (string, error) {
	return cl.c.CallText("cat", soap.Str("path", path))
}

// Get transfers a file as one string (the non-scaling PoC transfer).
func (cl *Client) Get(path string) (string, error) {
	return cl.c.CallText("get", soap.Str("path", path))
}

// Put transfers a file as one string (the non-scaling PoC transfer).
func (cl *Client) Put(path, data, resource string) error {
	_, err := cl.c.CallText("put",
		soap.Str("path", path), soap.Str("data", data), soap.Str("resource", resource))
	return err
}

// XMLCall executes multiple commands in one connection.
func (cl *Client) XMLCall(cmds []Command) ([]CommandResult, error) {
	var out []CommandResult
	err := cl.c.CallXML(context.TODO(), "xmlCall", func(el *xmlutil.Element) error {
		var err error
		out, err = ParseResults(el)
		return err
	}, soap.XMLDoc("request", BuildRequest(cmds)))
	return out, err
}

// Stat returns a file's size.
func (cl *Client) Stat(path string) (int, error) {
	resp, release, err := cl.c.Call(context.TODO(), "stat", soap.Str("path", path))
	if err != nil {
		return 0, err
	}
	defer release()
	return strconv.Atoi(resp.ReturnText("size"))
}

// GetChunked transfers a file in bounded chunks — the scalability ablation.
func (cl *Client) GetChunked(path string, chunkSize int) (string, error) {
	if chunkSize <= 0 {
		return "", fmt.Errorf("srbws: chunk size must be positive")
	}
	size, err := cl.Stat(path)
	if err != nil {
		return "", err
	}
	var out []byte
	for off := 0; off < size; off += chunkSize {
		resp, release, err := cl.c.Call(context.TODO(), "getChunk",
			soap.Str("path", path), soap.Int("offset", off), soap.Int("size", chunkSize))
		if err != nil {
			return "", err
		}
		out = append(out, resp.ReturnText("data")...)
		release()
	}
	return string(out), nil
}

// PutChunked uploads a file in bounded chunks.
func (cl *Client) PutChunked(path, data, resource string, chunkSize int) error {
	if chunkSize <= 0 {
		return fmt.Errorf("srbws: chunk size must be positive")
	}
	if data == "" {
		return cl.Put(path, "", resource)
	}
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		_, err := cl.c.CallText("putChunk",
			soap.Str("path", path), soap.Int("offset", off),
			soap.Str("data", data[off:end]), soap.Str("resource", resource))
		if err != nil {
			return err
		}
	}
	return nil
}
