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
					list := xmlutil.New("businessList")
					for _, b := range r.FindBusiness(in.Str("name")) {
						be := xmlutil.New("businessEntity").SetAttr("businessKey", b.Key)
						be.AddText("name", b.Name)
						be.AddText("description", b.Description)
						list.Add(be)
					}
					return rpc.Ret(list), nil
				},
			},
			{
				Name:       "findService",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("businessKey"), rpc.Str("name")},
				Out:        []wsdl.Param{rpc.XML("serviceList")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					return rpc.Ret(serviceList(r.FindService(in.Str("businessKey"), in.Str("name")))), nil
				},
			},
			{
				Name:       "findServiceByTModel",
				Idempotent: true,
				In:         []wsdl.Param{rpc.Str("tModelKey")},
				Out:        []wsdl.Param{rpc.XML("serviceList")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					// The index's records are immutable, so the answer is
					// rendered from them without copying.
					return rpc.Ret(serviceList(r.servicesByTModel(in.Str("tModelKey")))), nil
				},
			},
			{
				Name:       "findByDescription",
				Idempotent: true,
				Doc:        "Substring search over service descriptions: the string-convention capability lookup.",
				In:         []wsdl.Param{rpc.Str("pattern")},
				Out:        []wsdl.Param{rpc.XML("serviceList")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					return rpc.Ret(serviceList(r.FindByConvention(in.Str("pattern")))), nil
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
					return rpc.Ret(serviceElement(s)), nil
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
					el := xmlutil.New("tModel").SetAttr("tModelKey", t.Key)
					el.AddText("name", t.Name)
					el.AddText("description", t.Description)
					el.AddText("overviewURL", t.OverviewURL)
					return rpc.Ret(el), nil
				},
			},
		},
	}
}

// Contract returns the WSDL interface of the registry service.
func Contract() *wsdl.Interface {
	return def(nil).Interface()
}

// serviceElement renders a BusinessService for the wire.
func serviceElement(s *BusinessService) *xmlutil.Element {
	el := xmlutil.New("businessService").
		SetAttr("serviceKey", s.Key).
		SetAttr("businessKey", s.BusinessKey)
	el.AddText("name", s.Name)
	el.AddText("description", s.Description)
	for _, b := range s.Bindings {
		bt := xmlutil.New("bindingTemplate").SetAttr("bindingKey", b.Key)
		bt.AddText("accessPoint", b.AccessPoint)
		if b.Description != "" {
			bt.AddText("description", b.Description)
		}
		for _, tk := range b.TModelKeys {
			bt.AddText("tModelKey", tk)
		}
		el.Add(bt)
	}
	return el
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

func serviceList(services []*BusinessService) *xmlutil.Element {
	list := xmlutil.New("serviceList")
	for _, s := range services {
		list.Add(serviceElement(s))
	}
	return list
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
