package uddi

import (
	"context"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlutil"
)

// ServiceNS is the namespace of the UDDI registry's own SOAP interface.
const ServiceNS = "urn:gce:uddi"

// def is the declarative operation table of the registry service: a
// compact publish + inquiry API shaped like UDDI v2's save_xxx/find_xxx
// messages.
func def(r *Registry) *rpc.Def {
	fail := func(code, format string, a ...interface{}) error {
		return soap.NewPortalError("UDDIRegistry", code, format, a...)
	}
	return &rpc.Def{
		Name: "UDDIRegistry",
		NS:   ServiceNS,
		Doc:  "UDDI-style publish and inquiry API for portal services.",
		Ops: []rpc.Op{
			{
				Name: "saveBusiness",
				Doc:  "Publishes a business entity; returns its key.",
				In:   []wsdl.Param{rpc.Str("name"), rpc.Str("description")},
				Out:  []wsdl.Param{rpc.Str("businessKey")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					b, err := r.SaveBusiness(BusinessEntity{Name: in.Str("name"), Description: in.Str("description")})
					if err != nil {
						return nil, fail(soap.ErrCodeInternal, "%v", err)
					}
					return rpc.Ret(b.Key), nil
				},
			},
			{
				Name: "saveTModel",
				Doc:  "Publishes a tModel pointing at a WSDL interface document.",
				In:   []wsdl.Param{rpc.Str("name"), rpc.Str("description"), rpc.Str("overviewURL")},
				Out:  []wsdl.Param{rpc.Str("tModelKey")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					t, err := r.SaveTModel(TModel{
						Name:        in.Str("name"),
						Description: in.Str("description"),
						OverviewURL: in.Str("overviewURL"),
					})
					if err != nil {
						return nil, fail(soap.ErrCodeInternal, "%v", err)
					}
					return rpc.Ret(t.Key), nil
				},
			},
			{
				Name: "saveService",
				Doc:  "Publishes a service with one binding template.",
				In: []wsdl.Param{rpc.Str("businessKey"), rpc.Str("name"), rpc.Str("description"),
					rpc.Str("accessPoint"), rpc.Strs("tModelKeys")},
				Out: []wsdl.Param{rpc.Str("serviceKey")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					s, err := r.SaveService(BusinessService{
						BusinessKey: in.Str("businessKey"),
						Name:        in.Str("name"),
						Description: in.Str("description"),
						Bindings: []BindingTemplate{{
							AccessPoint: in.Str("accessPoint"),
							TModelKeys:  in.Strings("tModelKeys"),
						}},
					})
					if err != nil {
						return nil, fail(soap.ErrCodeBadRequest, "%v", err)
					}
					return rpc.Ret(s.Key), nil
				},
			},
			{
				Name: "deleteService",
				In:   []wsdl.Param{rpc.Str("serviceKey")},
				Out:  []wsdl.Param{rpc.Bool("deleted")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					if err := r.DeleteService(in.Str("serviceKey")); err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					return rpc.Ret(true), nil
				},
			},
			{
				Name:       "findBusiness",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("name")},
				Out:        []wsdl.Param{rpc.XML("businessList")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					businesses := r.FindBusiness(in.Str("name"))
					return rpc.Ret(func(w *xmlutil.Writer) { writeBusinessList(w, businesses) }), nil
				},
			},
			{
				Name:       "findService",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("businessKey"), rpc.Str("name")},
				Out:        []wsdl.Param{rpc.XML("serviceList")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					return rpc.Ret(serviceListWriter(r.servicesByName(in.Str("businessKey"), in.Str("name")))), nil
				},
			},
			{
				Name:       "findServiceByTModel",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("tModelKey")},
				Out:        []wsdl.Param{rpc.XML("serviceList")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					return rpc.Ret(serviceListWriter(r.servicesByTModel(in.Str("tModelKey")))), nil
				},
			},
			{
				Name:       "findByDescription",
				Idempotent: true,
				Doc:        "Substring search over service descriptions: the string-convention capability lookup.",
				In:         []wsdl.Param{rpc.Str("pattern")},
				Out:        []wsdl.Param{rpc.XML("serviceList")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					return rpc.Ret(serviceListWriter(r.servicesByDescription(in.Str("pattern")))), nil
				},
			},
			{
				Name:       "getServiceDetail",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("serviceKey")},
				Out:        []wsdl.Param{rpc.XML("service")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					s, err := r.GetServiceDetail(in.Str("serviceKey"))
					if err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					return rpc.Ret(func(w *xmlutil.Writer) { writeService(w, s) }), nil
				},
			},
			{
				Name:       "getTModel",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("tModelKey")},
				Out:        []wsdl.Param{rpc.XML("tModel")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					t, err := r.GetTModel(in.Str("tModelKey"))
					if err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					return rpc.Ret(func(w *xmlutil.Writer) { writeTModel(w, t) }), nil
				},
			},
		},
	}
}

// Contract returns the WSDL interface of the registry service.
func Contract() *wsdl.Interface {
	return def(nil).Interface()
}

// The registry's XML answers are written straight from its records as
// xmlutil.Writer events; no answer builds an element tree. A handler
// returns the writer, which runs after the handler has returned, in the
// kernel's encode or a response cache's. That is safe because nothing it
// reads can change: every find hands it the registry's stored records,
// which are immutable (Save* stores a fresh copy and never edits one in
// place), and getServiceDetail a deep copy. The answers'
// tree forms, in the package's tests, are the writers' oracle
// (FuzzServiceListWriterVsTree), and the golden wire suite pins their
// bytes.

// writeTextElement writes <name>text</name>; empty text self-closes.
func writeTextElement(w *xmlutil.Writer, name, text string) {
	w.Start("", name)
	w.Text(text)
	w.End()
}

// writeService writes s as a businessService element.
func writeService(w *xmlutil.Writer, s *BusinessService) {
	w.Start("", "businessService")
	w.Attr("", "serviceKey", s.Key)
	w.Attr("", "businessKey", s.BusinessKey)
	writeTextElement(w, "name", s.Name)
	writeTextElement(w, "description", s.Description)
	for _, b := range s.Bindings {
		w.Start("", "bindingTemplate")
		w.Attr("", "bindingKey", b.Key)
		writeTextElement(w, "accessPoint", b.AccessPoint)
		if b.Description != "" {
			writeTextElement(w, "description", b.Description)
		}
		for _, tk := range b.TModelKeys {
			writeTextElement(w, "tModelKey", tk)
		}
		w.End()
	}
	w.End()
}

// serviceListWriter is the out value of a find that answers services: it
// writes them as a serviceList element.
func serviceListWriter(services []*BusinessService) func(*xmlutil.Writer) {
	return func(w *xmlutil.Writer) {
		w.Start("", "serviceList")
		for _, s := range services {
			writeService(w, s)
		}
		w.End()
	}
}

// writeTModel writes t as a tModel element.
func writeTModel(w *xmlutil.Writer, t *TModel) {
	w.Start("", "tModel")
	w.Attr("", "tModelKey", t.Key)
	writeTextElement(w, "name", t.Name)
	writeTextElement(w, "description", t.Description)
	writeTextElement(w, "overviewURL", t.OverviewURL)
	w.End()
}

// writeBusinessList writes businesses as a businessList element.
func writeBusinessList(w *xmlutil.Writer, businesses []*BusinessEntity) {
	w.Start("", "businessList")
	for _, b := range businesses {
		w.Start("", "businessEntity")
		w.Attr("", "businessKey", b.Key)
		writeTextElement(w, "name", b.Name)
		writeTextElement(w, "description", b.Description)
		w.End()
	}
	w.End()
}

// ServiceFromElement parses a wire businessService element. It copies out
// only strings, so el may sit in a pooled response arena.
func ServiceFromElement(el *xmlutil.Element) *BusinessService {
	s := &BusinessService{
		Key:         el.AttrDefault("serviceKey", ""),
		BusinessKey: el.AttrDefault("businessKey", ""),
		Name:        el.ChildText("name"),
		Description: el.ChildText("description"),
	}
	for _, bt := range el.Children {
		if bt.Name != "bindingTemplate" {
			continue
		}
		b := BindingTemplate{
			Key:         bt.AttrDefault("bindingKey", ""),
			AccessPoint: bt.ChildText("accessPoint"),
			Description: bt.ChildText("description"),
		}
		for _, tk := range bt.Children {
			if tk.Name == "tModelKey" {
				b.TModelKeys = append(b.TModelKeys, tk.Text)
			}
		}
		s.Bindings = append(s.Bindings, b)
	}
	return s
}

// ServicesFromList parses a wire serviceList element.
func ServicesFromList(el *xmlutil.Element) []*BusinessService {
	if len(el.Children) == 0 {
		return nil
	}
	// Every child of a serviceList is a businessService, so this is the
	// answer's exact length.
	out := make([]*BusinessService, 0, len(el.Children))
	for _, c := range el.Children {
		if c.Name == "businessService" {
			out = append(out, ServiceFromElement(c))
		}
	}
	return out
}

// NewService wraps a Registry as a deployable core.Service built from the
// declarative operation table.
func NewService(r *Registry) *core.Service {
	return def(r).MustBuild()
}

// Client is a typed proxy to a remote UDDI registry service.
type Client struct {
	c *core.Client
}

// NewClient binds a UDDI client to the registry endpoint.
func NewClient(t soap.Transport, endpoint string) *Client {
	return &Client{c: core.NewClient(t, endpoint, Contract())}
}

// SaveBusiness publishes a business entity and returns its key.
func (cl *Client) SaveBusiness(name, description string) (string, error) {
	return cl.c.CallText("saveBusiness", soap.Str("name", name), soap.Str("description", description))
}

// SaveTModel publishes an interface tModel and returns its key.
func (cl *Client) SaveTModel(name, description, overviewURL string) (string, error) {
	return cl.c.CallText("saveTModel",
		soap.Str("name", name), soap.Str("description", description), soap.Str("overviewURL", overviewURL))
}

// SaveService publishes a service with one binding and returns its key.
func (cl *Client) SaveService(businessKey, name, description, accessPoint string, tModelKeys []string) (string, error) {
	return cl.c.CallText("saveService",
		soap.Str("businessKey", businessKey),
		soap.Str("name", name),
		soap.Str("description", description),
		soap.Str("accessPoint", accessPoint),
		soap.StrArray("tModelKeys", tModelKeys))
}

// DeleteService removes a published service.
func (cl *Client) DeleteService(serviceKey string) error {
	_, err := cl.c.CallText("deleteService", soap.Str("serviceKey", serviceKey))
	return err
}

// findServices runs one of the find operations and decodes its
// serviceList in place.
func (cl *Client) findServices(operation string, params ...soap.Value) ([]*BusinessService, error) {
	var out []*BusinessService
	err := cl.c.CallXML(context.TODO(), operation, func(el *xmlutil.Element) error {
		out = ServicesFromList(el)
		return nil
	}, params...)
	return out, err
}

// FindService lists services by business and name pattern.
func (cl *Client) FindService(businessKey, name string) ([]*BusinessService, error) {
	return cl.findServices("findService", soap.Str("businessKey", businessKey), soap.Str("name", name))
}

// FindServiceByTModel lists services implementing an interface tModel.
func (cl *Client) FindServiceByTModel(tModelKey string) ([]*BusinessService, error) {
	return cl.findServices("findServiceByTModel", soap.Str("tModelKey", tModelKey))
}

// FindByDescription performs the string-convention capability search.
func (cl *Client) FindByDescription(pattern string) ([]*BusinessService, error) {
	return cl.findServices("findByDescription", soap.Str("pattern", pattern))
}

// GetServiceDetail fetches one service by key.
func (cl *Client) GetServiceDetail(serviceKey string) (*BusinessService, error) {
	var s *BusinessService
	err := cl.c.CallXML(context.TODO(), "getServiceDetail", func(el *xmlutil.Element) error {
		s = ServiceFromElement(el)
		return nil
	}, soap.Str("serviceKey", serviceKey))
	return s, err
}

// GetTModel fetches one tModel by key.
func (cl *Client) GetTModel(tModelKey string) (*TModel, error) {
	var tm *TModel
	err := cl.c.CallXML(context.TODO(), "getTModel", func(el *xmlutil.Element) error {
		tm = &TModel{
			Key:         el.AttrDefault("tModelKey", ""),
			Name:        el.ChildText("name"),
			Description: el.ChildText("description"),
			OverviewURL: el.ChildText("overviewURL"),
		}
		return nil
	}, soap.Str("tModelKey", tModelKey))
	return tm, err
}
