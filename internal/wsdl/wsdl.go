// Package wsdl implements a WSDL 1.1 subset sufficient for the portal
// services: an abstract interface model (port types, operations, typed
// messages), generation of WSDL documents from the model, parsing documents
// back into the model, and the interface-compatibility check that realises
// the paper's central interoperability discipline — IU and SDSC "agreed to a
// common service interface" in WSDL and then implemented it independently
// (Section 3.4). Compatibility checking is what lets a client built against
// the agreed interface bind to either implementation.
package wsdl

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/xmlutil"
)

// Namespace URIs used in WSDL documents.
const (
	WSDLNS     = "http://schemas.xmlsoap.org/wsdl/"
	SOAPBindNS = "http://schemas.xmlsoap.org/wsdl/soap/"
	XSDNS      = "http://www.w3.org/2001/XMLSchema"
	// ExtNS is the namespace of portal WSDL extension attributes — the
	// idempotency marker WSDL 1.1 lacks. WSDL 1.1 explicitly permits
	// foreign-namespace attributes on its elements, so annotated documents
	// stay valid for stock tooling.
	ExtNS = "urn:gce:wsdl-ext"
)

// Param is one typed message part.
type Param struct {
	// Name is the part name.
	Name string
	// Type is the XSD type local name ("string", "int", "boolean",
	// "double") or the extended names "stringArray" and "xml" for the two
	// compound payloads the portal services exchange.
	Type string
}

// Operation is one abstract operation: a request message and a response
// message.
type Operation struct {
	// Name of the operation.
	Name string
	// Doc is the human-readable description, emitted as wsdl:documentation.
	Doc string
	// Input parameters in order.
	Input []Param
	// Output parameters in order.
	Output []Param
	// Idempotent declares that repeating the operation observes the same
	// effect as invoking it once, so clients may retry it on ambiguous
	// transport failures. WSDL 1.1 has no standard marker for it, so it is
	// rendered as the ExtNS idempotent="true" extension attribute on the
	// portType operation — which is how a federating gateway that only
	// ever sees a provider's published WSDL learns which operations are
	// safe to fail over to another replica.
	Idempotent bool
}

// Interface is the abstract service contract: what the paper's groups
// agreed on before implementing independently.
type Interface struct {
	// Name is the port type name, e.g. "BatchScriptGenerator".
	Name string
	// TargetNS is the service namespace URI, e.g. "urn:batchscript".
	TargetNS string
	// Doc is the interface documentation.
	Doc string
	// Operations in declaration order.
	Operations []Operation
}

// Operation returns the named operation, or nil.
func (i *Interface) Operation(name string) *Operation {
	for k := range i.Operations {
		if i.Operations[k].Name == name {
			return &i.Operations[k]
		}
	}
	return nil
}

// Service is a concrete deployment of an interface at an endpoint — the
// wsdl:service/port element pair.
type Service struct {
	// Name is the service name, e.g. "SDSCBatchScriptService".
	Name string
	// Interface is the abstract contract the endpoint implements.
	Interface *Interface
	// Endpoint is the SOAP address location URL.
	Endpoint string
}

// xmlDecl prefixes every serialised WSDL document.
const xmlDecl = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// AppendTo streams the complete WSDL document (XML declaration included)
// into b through the Writer: messages, portType, SOAP binding, and
// service/port with the endpoint address. There is no types section:
// parameters use flat XSD types plus the two portal compound types. The
// golden documents under testdata/ pin its bytes
// (TestAppendToMatchesGolden).
func (s *Service) AppendTo(b *bytes.Buffer) {
	iface := s.Interface
	w := xmlutil.AcquireWriter(b)
	defer w.Release()
	w.Raw(xmlDecl)
	w.Start(WSDLNS, "definitions")
	w.Attr("", "name", s.Name)
	w.Attr("", "targetNamespace", iface.TargetNS)
	if iface.Doc != "" {
		w.Start(WSDLNS, "documentation")
		w.Text(iface.Doc)
		w.End()
	}
	// Messages.
	for _, op := range iface.Operations {
		writeMessage(w, op.Name+"Request", op.Input)
		writeMessage(w, op.Name+"Response", op.Output)
	}
	// Port type.
	w.Start(WSDLNS, "portType")
	w.Attr("", "name", iface.Name)
	for _, op := range iface.Operations {
		w.Start(WSDLNS, "operation")
		w.Attr("", "name", op.Name)
		if op.Idempotent {
			w.Attr(ExtNS, "idempotent", "true")
		}
		if op.Doc != "" {
			w.Start(WSDLNS, "documentation")
			w.Text(op.Doc)
			w.End()
		}
		w.Start(WSDLNS, "input")
		w.Attr("", "message", "tns:"+op.Name+"Request")
		w.End()
		w.Start(WSDLNS, "output")
		w.Attr("", "message", "tns:"+op.Name+"Response")
		w.End()
		w.End()
	}
	w.End()
	// SOAP RPC binding.
	w.Start(WSDLNS, "binding")
	w.Attr("", "name", iface.Name+"SoapBinding")
	w.Attr("", "type", "tns:"+iface.Name)
	w.Start(SOAPBindNS, "binding")
	w.Attr("", "style", "rpc")
	w.Attr("", "transport", "http://schemas.xmlsoap.org/soap/http")
	w.End()
	for _, op := range iface.Operations {
		w.Start(WSDLNS, "operation")
		w.Attr("", "name", op.Name)
		w.Start(SOAPBindNS, "operation")
		w.Attr("", "soapAction", iface.TargetNS+"#"+op.Name)
		w.End()
		w.Start(WSDLNS, "input")
		w.Start(SOAPBindNS, "body")
		w.Attr("", "use", "encoded")
		w.Attr("", "namespace", iface.TargetNS)
		w.End()
		w.End()
		w.Start(WSDLNS, "output")
		w.Start(SOAPBindNS, "body")
		w.Attr("", "use", "encoded")
		w.Attr("", "namespace", iface.TargetNS)
		w.End()
		w.End()
		w.End()
	}
	w.End()
	// Service + port.
	w.Start(WSDLNS, "service")
	w.Attr("", "name", s.Name)
	w.Start(WSDLNS, "port")
	w.Attr("", "name", iface.Name+"Port")
	w.Attr("", "binding", "tns:"+iface.Name+"SoapBinding")
	w.Start(SOAPBindNS, "address")
	w.Attr("", "location", s.Endpoint)
	w.End()
	w.End()
	w.End()
	w.End()
}

func writeMessage(w *xmlutil.Writer, name string, params []Param) {
	w.Start(WSDLNS, "message")
	w.Attr("", "name", name)
	for _, p := range params {
		w.Start(WSDLNS, "part")
		w.Attr("", "name", p.Name)
		w.Attr("", "type", typeQName(p.Type))
		w.End()
	}
	w.End()
}

// Render returns the serialised WSDL document that AppendTo writes.
func (s *Service) Render() string {
	b := xmlutil.GetBuffer()
	defer xmlutil.PutBuffer(b)
	s.AppendTo(b)
	return b.String()
}

func typeQName(t string) string {
	switch t {
	case "stringArray":
		return "tns:ArrayOfString"
	case "xml":
		return "tns:XMLDocument"
	default:
		return "xsd:" + t
	}
}

func typeLocal(qname string) string {
	local := qname
	if i := strings.LastIndex(qname, ":"); i >= 0 {
		local = qname[i+1:]
	}
	switch local {
	case "ArrayOfString":
		return "stringArray"
	case "XMLDocument":
		return "xml"
	default:
		return local
	}
}

// Parse reads a WSDL document back into a Service with its Interface.
func Parse(doc string) (*Service, error) {
	root, err := xmlutil.ParseString(doc)
	if err != nil {
		return nil, fmt.Errorf("wsdl: %w", err)
	}
	return FromElement(root)
}

// FromElement converts a parsed definitions element into a Service.
func FromElement(root *xmlutil.Element) (*Service, error) {
	if root.Name != "definitions" {
		return nil, fmt.Errorf("wsdl: root element %q is not definitions", root.Name)
	}
	iface := &Interface{TargetNS: root.AttrDefault("targetNamespace", "")}
	// Index messages.
	messages := map[string][]Param{}
	for _, msg := range root.ChildrenNamed("message") {
		var params []Param
		for _, part := range msg.ChildrenNamed("part") {
			params = append(params, Param{
				Name: part.AttrDefault("name", ""),
				Type: typeLocal(part.AttrDefault("type", "xsd:string")),
			})
		}
		messages[msg.AttrDefault("name", "")] = params
	}
	pt := root.Child("portType")
	if pt == nil {
		return nil, fmt.Errorf("wsdl: document has no portType")
	}
	iface.Name = pt.AttrDefault("name", "")
	if d := root.Child("documentation"); d != nil {
		iface.Doc = d.Text
	}
	for _, opEl := range pt.ChildrenNamed("operation") {
		op := Operation{
			Name:       opEl.AttrDefault("name", ""),
			Idempotent: opEl.AttrDefault("idempotent", "") == "true",
		}
		if d := opEl.Child("documentation"); d != nil {
			op.Doc = d.Text
		}
		if in := opEl.Child("input"); in != nil {
			op.Input = messages[localPart(in.AttrDefault("message", ""))]
		}
		if out := opEl.Child("output"); out != nil {
			op.Output = messages[localPart(out.AttrDefault("message", ""))]
		}
		iface.Operations = append(iface.Operations, op)
	}
	svc := &Service{Interface: iface}
	if svcEl := root.Child("service"); svcEl != nil {
		svc.Name = svcEl.AttrDefault("name", "")
		if port := svcEl.Child("port"); port != nil {
			if addr := port.Child("address"); addr != nil {
				svc.Endpoint = addr.AttrDefault("location", "")
			}
		}
	}
	if svc.Name == "" {
		svc.Name = iface.Name + "Service"
	}
	return svc, nil
}

func localPart(qname string) string {
	if i := strings.LastIndex(qname, ":"); i >= 0 {
		return qname[i+1:]
	}
	return qname
}

// Incompatibility describes one way an implementation diverges from an
// agreed interface.
type Incompatibility struct {
	// Operation is the affected operation name.
	Operation string
	// Reason explains the divergence.
	Reason string
}

func (ic Incompatibility) String() string {
	return fmt.Sprintf("%s: %s", ic.Operation, ic.Reason)
}

// CheckCompatible verifies that impl can serve every operation a client of
// the agreed interface may invoke: every agreed operation must exist in
// impl with identical parameter names and types in identical order, in the
// same target namespace. Extra operations in impl are allowed (a provider
// may offer more). It returns the list of divergences, empty when
// compatible.
func CheckCompatible(agreed, impl *Interface) []Incompatibility {
	var problems []Incompatibility
	if agreed.TargetNS != impl.TargetNS {
		problems = append(problems, Incompatibility{
			Operation: "*",
			Reason:    fmt.Sprintf("target namespace %q differs from agreed %q", impl.TargetNS, agreed.TargetNS),
		})
	}
	for _, op := range agreed.Operations {
		got := impl.Operation(op.Name)
		if got == nil {
			problems = append(problems, Incompatibility{Operation: op.Name, Reason: "operation missing"})
			continue
		}
		problems = append(problems, compareParams(op.Name, "input", op.Input, got.Input)...)
		problems = append(problems, compareParams(op.Name, "output", op.Output, got.Output)...)
	}
	return problems
}

func compareParams(opName, dir string, agreed, impl []Param) []Incompatibility {
	var problems []Incompatibility
	if len(agreed) != len(impl) {
		return []Incompatibility{{
			Operation: opName,
			Reason:    fmt.Sprintf("%s has %d parts, agreed interface has %d", dir, len(impl), len(agreed)),
		}}
	}
	for i := range agreed {
		if agreed[i].Name != impl[i].Name {
			problems = append(problems, Incompatibility{
				Operation: opName,
				Reason:    fmt.Sprintf("%s part %d named %q, agreed %q", dir, i, impl[i].Name, agreed[i].Name),
			})
		}
		if agreed[i].Type != impl[i].Type {
			problems = append(problems, Incompatibility{
				Operation: opName,
				Reason:    fmt.Sprintf("%s part %q has type %q, agreed %q", dir, agreed[i].Name, impl[i].Type, agreed[i].Type),
			})
		}
	}
	return problems
}
