package databind

import (
	"strings"
	"testing"
)

// appSchema is a reduced application-descriptor schema exercising all four
// wizard constituent types.
const appSchema = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:gce:app">
  <xs:element name="application">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name" type="xs:string">
          <xs:annotation><xs:documentation>Application name</xs:documentation></xs:annotation>
        </xs:element>
        <xs:element name="version" type="xs:string" default="1.0"/>
        <xs:element name="nodes" type="xs:int"/>
        <xs:element name="parallel" type="xs:boolean" minOccurs="0"/>
        <xs:element name="method">
          <xs:simpleType>
            <xs:restriction base="xs:string">
              <xs:enumeration value="HF"/>
              <xs:enumeration value="B3LYP"/>
              <xs:enumeration value="MP2"/>
            </xs:restriction>
          </xs:simpleType>
        </xs:element>
        <xs:element name="flag" type="xs:string" maxOccurs="unbounded" minOccurs="0"/>
        <xs:element name="execution">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="host" type="xs:string"/>
              <xs:element name="queue" type="xs:string" minOccurs="0"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`

func parseAppSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := ParseSchema(appSchema)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSchemaSOM(t *testing.T) {
	s := parseAppSchema(t)
	if s.TargetNS != "urn:gce:app" {
		t.Errorf("ns = %q", s.TargetNS)
	}
	app := s.Root("application")
	if app == nil || app.Kind != KindComplex {
		t.Fatalf("application = %+v", app)
	}
	if s.Root("missing") != nil {
		t.Error("phantom root")
	}
	cases := []struct {
		name string
		kind Kind
		typ  string
	}{
		{"name", KindSimple, "string"},
		{"nodes", KindSimple, "int"},
		{"parallel", KindSimple, "boolean"},
		{"method", KindEnumerated, "string"},
		{"flag", KindUnbounded, "string"},
		{"execution", KindComplex, ""},
	}
	for _, tc := range cases {
		d := app.Child(tc.name)
		if d == nil {
			t.Errorf("%s missing", tc.name)
			continue
		}
		if d.Kind != tc.kind || d.Type != tc.typ {
			t.Errorf("%s = kind %s type %q, want %s %q", tc.name, d.Kind, d.Type, tc.kind, tc.typ)
		}
	}
	if app.Child("name").Doc != "Application name" {
		t.Errorf("doc = %q", app.Child("name").Doc)
	}
	if app.Child("version").Default != "1.0" {
		t.Errorf("default = %q", app.Child("version").Default)
	}
	if app.Child("parallel").MinOccurs != 0 {
		t.Error("parallel should be optional")
	}
	if m := app.Child("method"); len(m.Enum) != 3 || m.Enum[1] != "B3LYP" {
		t.Errorf("enum = %v", m.Enum)
	}
	if got := app.CountDecls(); got != 10 {
		t.Errorf("CountDecls = %d", got)
	}
}

func TestParseSchemaErrors(t *testing.T) {
	bad := []string{
		"garbage",
		"<notschema/>",
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"/>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element/></xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="x" type="xs:duration"/></xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="x" maxOccurs="5" type="xs:string"/></xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="x" minOccurs="7" type="xs:string"/></xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="x"><xs:simpleType/></xs:element></xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="x"><xs:simpleType><xs:restriction base="xs:string"/></xs:simpleType></xs:element></xs:schema>`,
		`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="x"><xs:complexType/></xs:element></xs:schema>`,
	}
	for i, doc := range bad {
		if _, err := ParseSchema(doc); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDataObjectScalarValidation(t *testing.T) {
	s := parseAppSchema(t)
	app := NewDataObject(s.Root("application"))
	if err := app.SetField("nodes", "16"); err != nil {
		t.Fatal(err)
	}
	if err := app.SetField("nodes", "lots"); err == nil {
		t.Error("non-int accepted")
	}
	if err := app.SetField("parallel", "true"); err != nil {
		t.Fatal(err)
	}
	if err := app.SetField("parallel", "maybe"); err == nil {
		t.Error("non-bool accepted")
	}
	if err := app.SetField("method", "B3LYP"); err != nil {
		t.Fatal(err)
	}
	if err := app.SetField("method", "CCSD"); err == nil {
		t.Error("out-of-enum accepted")
	}
	if err := app.SetField("ghost", "x"); err == nil {
		t.Error("undeclared field accepted")
	}
	if app.GetField("version") != "1.0" {
		t.Errorf("default = %q", app.GetField("version"))
	}
}

func TestDataObjectUnbounded(t *testing.T) {
	s := parseAppSchema(t)
	app := NewDataObject(s.Root("application"))
	_ = app.AddFieldValue("flag", "-direct")
	_ = app.AddFieldValue("flag", "-nosym")
	if got := app.FieldValues("flag"); len(got) != 2 || got[1] != "-nosym" {
		t.Errorf("flags = %v", got)
	}
	// Add on a non-unbounded field fails.
	if err := app.AddFieldValue("name", "x"); err == nil {
		t.Error("Add on simple field accepted")
	}
	// Set on an unbounded field fails.
	f, _ := app.Field("flag")
	if err := f.Set("x"); err == nil {
		t.Error("Set on unbounded accepted")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	s := parseAppSchema(t)
	app := NewDataObject(s.Root("application"))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(app.SetField("name", "gaussian"))
	must(app.SetField("nodes", "8"))
	must(app.SetField("method", "HF"))
	must(app.AddFieldValue("flag", "-direct"))
	must(app.AddFieldValue("flag", "-nosym"))
	exec, err := app.Field("execution")
	must(err)
	must(exec.SetField("host", "modi4.ncsa.uiuc.edu"))
	must(exec.SetField("queue", "batch"))

	el := app.Marshal()
	if el.ChildText("name") != "gaussian" {
		t.Errorf("marshal name = %q", el.ChildText("name"))
	}
	if len(el.ChildrenNamed("flag")) != 2 {
		t.Errorf("marshal flags = %d", len(el.ChildrenNamed("flag")))
	}
	if host := el.Find("execution/host"); host == nil || host.Text != "modi4.ncsa.uiuc.edu" {
		t.Errorf("marshal host = %v", host)
	}

	back, err := Unmarshal(s.Root("application"), el)
	must(err)
	if back.GetField("name") != "gaussian" || back.GetField("nodes") != "8" {
		t.Errorf("unmarshal fields wrong")
	}
	if got := back.FieldValues("flag"); len(got) != 2 || got[0] != "-direct" {
		t.Errorf("unmarshal flags = %v", got)
	}
	e2, err := back.Field("execution")
	must(err)
	if e2.GetField("queue") != "batch" {
		t.Errorf("unmarshal queue = %q", e2.GetField("queue"))
	}
	// Marshal is stable across the round trip.
	if back.Marshal().Render() != el.Render() {
		t.Errorf("marshal not stable:\n%s\nvs\n%s", back.Marshal().Render(), el.Render())
	}
}

func TestUnmarshalValidation(t *testing.T) {
	s := parseAppSchema(t)
	decl := s.Root("application")
	ok := NewDataObject(decl)
	_ = ok.SetField("name", "x")
	_ = ok.SetField("nodes", "1")
	_ = ok.SetField("method", "HF")
	exec, _ := ok.Field("execution")
	_ = exec.SetField("host", "h")
	el := ok.Marshal()

	// Wrong element name.
	if _, err := Unmarshal(decl, el.Clone().SetAttr("x", "y")); err != nil {
		t.Errorf("attr should not break unmarshal: %v", err)
	}
	bad := el.Clone()
	bad.Name = "wrong"
	if _, err := Unmarshal(decl, bad); err == nil {
		t.Error("wrong name accepted")
	}
	// Undeclared child.
	bad = el.Clone()
	bad.AddText("rogue", "x")
	if _, err := Unmarshal(decl, bad); err == nil {
		t.Error("undeclared child accepted")
	}
	// Repeated singleton.
	bad = el.Clone()
	bad.AddText("name", "again")
	if _, err := Unmarshal(decl, bad); err == nil {
		t.Error("repeated singleton accepted")
	}
	// Missing required child.
	bad = el.Clone()
	for i, c := range bad.Children {
		if c.Name == "name" {
			bad.Children = append(bad.Children[:i], bad.Children[i+1:]...)
			break
		}
	}
	if _, err := Unmarshal(decl, bad); err == nil {
		t.Error("missing required child accepted")
	}
	// Bad enum value.
	bad = el.Clone()
	bad.Child("method").Text = "CCSD"
	if _, err := Unmarshal(decl, bad); err == nil {
		t.Error("bad enum accepted")
	}
	// Bad int.
	bad = el.Clone()
	bad.Child("nodes").Text = "NaN"
	if _, err := Unmarshal(decl, bad); err == nil {
		t.Error("bad int accepted")
	}
}

// TestAccessorExplosion pins the S5.2 observation: the generated accessor
// interface is far larger than the adapter facade a practical WSDL needs.
func TestAccessorExplosion(t *testing.T) {
	s := parseAppSchema(t)
	accessors := AccessorNames(s.Root("application"))
	if len(accessors) < 18 {
		t.Errorf("accessors = %d (%v), expected the full bean explosion", len(accessors), accessors)
	}
	// Spot checks on the naming convention.
	joined := strings.Join(accessors, ",")
	for _, want := range []string{"getApplication", "setName", "addFlag", "getFlagList", "getExecution", "setHost"} {
		if !strings.Contains(joined, want) {
			t.Errorf("accessor %s missing in %v", want, accessors)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindSimple.String() != "simple" || KindEnumerated.String() != "enumerated" ||
		KindUnbounded.String() != "unboundedSimple" || KindComplex.String() != "complex" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind name wrong")
	}
}
