package wsdl

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden WSDL documents under testdata/")

// scriptGenInterface is the common batch-script interface the two groups
// agreed on (Section 3.4), reused across tests.
func scriptGenInterface() *Interface {
	return &Interface{
		Name:     "BatchScriptGenerator",
		TargetNS: "urn:gce:batchscript",
		Doc:      "Generates batch queuing scripts for HPC schedulers.",
		Operations: []Operation{
			{
				Name:       "listSchedulers",
				Doc:        "Lists the queuing systems this generator supports.",
				Output:     []Param{{Name: "schedulers", Type: "stringArray"}},
				Idempotent: true,
			},
			{
				Name: "generateScript",
				Input: []Param{
					{Name: "scheduler", Type: "string"},
					{Name: "jobName", Type: "string"},
					{Name: "executable", Type: "string"},
					{Name: "nodes", Type: "int"},
					{Name: "wallTimeSeconds", Type: "int"},
				},
				Output: []Param{{Name: "script", Type: "string"}},
			},
		},
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	svc := &Service{
		Name:      "SDSCBatchScriptService",
		Interface: scriptGenInterface(),
		Endpoint:  "http://hotpage.sdsc.edu:8080/soap/batchscript",
	}
	doc := svc.Render()
	if !strings.Contains(doc, "portType") || !strings.Contains(doc, "SDSCBatchScriptService") {
		t.Fatalf("document missing structure:\n%s", doc)
	}
	parsed, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != svc.Name {
		t.Errorf("name = %q", parsed.Name)
	}
	if parsed.Endpoint != svc.Endpoint {
		t.Errorf("endpoint = %q", parsed.Endpoint)
	}
	if parsed.Interface.Name != "BatchScriptGenerator" {
		t.Errorf("iface = %q", parsed.Interface.Name)
	}
	if parsed.Interface.TargetNS != "urn:gce:batchscript" {
		t.Errorf("ns = %q", parsed.Interface.TargetNS)
	}
	if len(parsed.Interface.Operations) != 2 {
		t.Fatalf("ops = %d", len(parsed.Interface.Operations))
	}
	gen := parsed.Interface.Operation("generateScript")
	if gen == nil {
		t.Fatal("generateScript missing")
	}
	if len(gen.Input) != 5 || gen.Input[3].Name != "nodes" || gen.Input[3].Type != "int" {
		t.Errorf("input = %+v", gen.Input)
	}
	ls := parsed.Interface.Operation("listSchedulers")
	if ls == nil || len(ls.Output) != 1 || ls.Output[0].Type != "stringArray" {
		t.Errorf("listSchedulers output = %+v", ls)
	}
}

func TestCompatibleIdentical(t *testing.T) {
	agreed := scriptGenInterface()
	impl := scriptGenInterface()
	if problems := CheckCompatible(agreed, impl); len(problems) != 0 {
		t.Errorf("identical interfaces flagged: %v", problems)
	}
}

func TestCompatibleExtraOperationsAllowed(t *testing.T) {
	agreed := scriptGenInterface()
	impl := scriptGenInterface()
	impl.Operations = append(impl.Operations, Operation{Name: "extraDiagnostics"})
	if problems := CheckCompatible(agreed, impl); len(problems) != 0 {
		t.Errorf("extra provider operations must not break compatibility: %v", problems)
	}
}

func TestIncompatibleMissingOperation(t *testing.T) {
	agreed := scriptGenInterface()
	impl := scriptGenInterface()
	impl.Operations = impl.Operations[:1]
	problems := CheckCompatible(agreed, impl)
	if len(problems) != 1 || problems[0].Operation != "generateScript" {
		t.Errorf("problems = %v", problems)
	}
	if !strings.Contains(problems[0].String(), "missing") {
		t.Errorf("reason = %q", problems[0].Reason)
	}
}

func TestIncompatibleTypeDrift(t *testing.T) {
	agreed := scriptGenInterface()
	impl := scriptGenInterface()
	impl.Operations[1].Input[3].Type = "string" // nodes int -> string
	problems := CheckCompatible(agreed, impl)
	if len(problems) != 1 {
		t.Fatalf("problems = %v", problems)
	}
	if !strings.Contains(problems[0].Reason, `"string"`) {
		t.Errorf("reason = %q", problems[0].Reason)
	}
}

func TestIncompatibleParamRename(t *testing.T) {
	agreed := scriptGenInterface()
	impl := scriptGenInterface()
	impl.Operations[1].Input[0].Name = "queueSystem"
	if len(CheckCompatible(agreed, impl)) == 0 {
		t.Error("renamed parameter must break compatibility")
	}
}

func TestIncompatibleArityChange(t *testing.T) {
	agreed := scriptGenInterface()
	impl := scriptGenInterface()
	impl.Operations[1].Input = impl.Operations[1].Input[:3]
	problems := CheckCompatible(agreed, impl)
	if len(problems) != 1 || !strings.Contains(problems[0].Reason, "parts") {
		t.Errorf("problems = %v", problems)
	}
}

func TestIncompatibleNamespace(t *testing.T) {
	agreed := scriptGenInterface()
	impl := scriptGenInterface()
	impl.TargetNS = "urn:other"
	problems := CheckCompatible(agreed, impl)
	if len(problems) == 0 || problems[0].Operation != "*" {
		t.Errorf("problems = %v", problems)
	}
}

func TestOperationLookup(t *testing.T) {
	i := scriptGenInterface()
	for _, name := range []string{"listSchedulers", "generateScript"} {
		if op := i.Operation(name); op == nil || op.Name != name {
			t.Errorf("Operation(%q) = %v", name, op)
		}
	}
	if op := i.Operation("submitJob"); op != nil {
		t.Errorf("Operation(submitJob) = %v, want nil", op)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("<notwsdl/>"); err == nil {
		t.Error("non-WSDL root accepted")
	}
	if _, err := Parse("garbage"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Parse(`<definitions xmlns="http://schemas.xmlsoap.org/wsdl/"/>`); err == nil {
		t.Error("document without portType accepted")
	}
}

func TestParseDefaultsServiceName(t *testing.T) {
	doc := `<definitions xmlns="http://schemas.xmlsoap.org/wsdl/" targetNamespace="urn:x">
	  <portType name="Thing"><operation name="go"/></portType>
	</definitions>`
	svc, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Name != "ThingService" {
		t.Errorf("defaulted name = %q", svc.Name)
	}
}

func TestXMLDocumentType(t *testing.T) {
	iface := &Interface{
		Name:     "Globusrun",
		TargetNS: "urn:globusrun",
		Operations: []Operation{{
			Name:   "submitXML",
			Input:  []Param{{Name: "request", Type: "xml"}},
			Output: []Param{{Name: "results", Type: "xml"}},
		}},
	}
	svc := &Service{Name: "G", Interface: iface, Endpoint: "http://x/soap"}
	parsed, err := Parse(svc.Render())
	if err != nil {
		t.Fatal(err)
	}
	op := parsed.Interface.Operation("submitXML")
	if op.Input[0].Type != "xml" || op.Output[0].Type != "xml" {
		t.Errorf("xml type lost: %+v", op)
	}
}

// TestIdempotentPreserved pins the idempotency extension attribute: the
// flag survives a render/parse round trip (so a gateway reading published
// WSDL recovers it) and absent markers parse as false.
func TestIdempotentPreserved(t *testing.T) {
	svc := &Service{Name: "S", Interface: scriptGenInterface(), Endpoint: "http://e"}
	doc := svc.Render()
	if !strings.Contains(doc, `idempotent="true"`) {
		t.Fatalf("idempotent marker not rendered:\n%s", doc)
	}
	parsed, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Interface.Operation("listSchedulers").Idempotent {
		t.Error("idempotent flag lost on round trip")
	}
	if parsed.Interface.Operation("generateScript").Idempotent {
		t.Error("unmarked operation parsed as idempotent")
	}
}

func TestDocPreserved(t *testing.T) {
	svc := &Service{Name: "S", Interface: scriptGenInterface(), Endpoint: "http://e"}
	parsed, err := Parse(svc.Render())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Interface.Doc == "" {
		t.Error("interface documentation lost")
	}
	if parsed.Interface.Operation("listSchedulers").Doc == "" {
		t.Error("operation documentation lost")
	}
}

// TestAppendToMatchesGolden pins the WSDL byte format: AppendTo and Render
// must reproduce the golden documents under testdata/ across empty,
// minimal, and compound-typed interfaces, and parse back into the same
// model. Regenerate after an intentional format change with:
//
//	go test ./internal/wsdl -run TestAppendToMatchesGolden -update
func TestAppendToMatchesGolden(t *testing.T) {
	services := []*Service{
		{Name: "SDSCBatchScriptService", Interface: scriptGenInterface(),
			Endpoint: "http://hotpage.sdsc.edu:8080/soap/batchscript"},
		{Name: "Empty", Interface: &Interface{Name: "Nothing", TargetNS: "urn:none"}, Endpoint: "http://x"},
		{Name: "Compound", Interface: &Interface{
			Name: "C", TargetNS: "urn:compound",
			Operations: []Operation{{
				Name:   "mix",
				Input:  []Param{{Name: "doc", Type: "xml"}, {Name: "tags", Type: "stringArray"}},
				Output: []Param{{Name: "out", Type: "xml"}},
			}},
		}, Endpoint: "http://c/soap?q=a&b=c"},
	}
	for _, svc := range services {
		var streamed bytes.Buffer
		svc.AppendTo(&streamed)
		path := filepath.Join("testdata", svc.Name+".wsdl")
		if *update {
			if err := os.WriteFile(path, streamed.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (re-run with -update): %v", path, err)
		}
		if streamed.String() != string(want) {
			t.Errorf("%s: AppendTo diverges from %s\n got: %s\nwant: %s", svc.Name, path, streamed.String(), want)
		}
		if svc.Render() != string(want) {
			t.Errorf("%s: Render diverges from %s", svc.Name, path)
		}
		// And the streamed form must parse back into the same model.
		back, err := Parse(streamed.String())
		if err != nil {
			t.Fatalf("%s: streamed WSDL does not parse: %v", svc.Name, err)
		}
		if len(CheckCompatible(svc.Interface, back.Interface)) != 0 || len(CheckCompatible(back.Interface, svc.Interface)) != 0 {
			t.Errorf("%s: streamed WSDL parsed into an incompatible interface", svc.Name)
		}
	}
}
