package saml

import (
	"errors"
	"testing"
	"time"

	"repro/internal/gss"
	"repro/internal/soap"
	"repro/internal/xmlutil"
)

var testTime = time.Date(2002, 6, 1, 12, 0, 0, 0, time.UTC)

func contextPair(t *testing.T) (*gss.Context, *gss.Context) {
	t.Helper()
	kdc := gss.NewKDC("GRID.IU.EDU")
	kdc.AddPrincipal("cyoun", "pw")
	kdc.AddPrincipal("authsvc/host", "sk")
	creds, err := kdc.Login("cyoun", "pw", "authsvc/host")
	if err != nil {
		t.Fatal(err)
	}
	token, initiator, err := gss.InitContext(creds, testTime)
	if err != nil {
		t.Fatal(err)
	}
	kt, _ := kdc.Keytab("authsvc/host")
	acceptor, err := gss.AcceptContext(kt, token, testTime)
	if err != nil {
		t.Fatal(err)
	}
	return initiator, acceptor
}

func TestAssertionRoundTrip(t *testing.T) {
	a := New("ui-server", "cyoun", MethodKerberos, "authsess-1", testTime, 5*time.Minute)
	parsed, err := FromElement(a.Element())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Subject != "cyoun" || parsed.Issuer != "ui-server" || parsed.SessionID != "authsess-1" {
		t.Errorf("parsed = %+v", parsed)
	}
	if !parsed.NotOnOrAfter.Equal(testTime.Add(5 * time.Minute)) {
		t.Errorf("NotOnOrAfter = %v", parsed.NotOnOrAfter)
	}
	if parsed.Method != MethodKerberos {
		t.Errorf("method = %q", parsed.Method)
	}
	if parsed.ID == "" || parsed.ID != a.ID {
		t.Errorf("id = %q vs %q", parsed.ID, a.ID)
	}
}

func TestSignVerify(t *testing.T) {
	initiator, acceptor := contextPair(t)
	a := New("ui-server", "cyoun", MethodKerberos, "s1", testTime, time.Minute)
	if err := a.VerifySignature(acceptor); !errors.Is(err, ErrUnsigned) {
		t.Errorf("unsigned err = %v", err)
	}
	a.Sign(initiator)
	if err := a.VerifySignature(acceptor); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	// Survives the wire.
	parsed, err := FromElement(a.Element())
	if err != nil {
		t.Fatal(err)
	}
	if err := parsed.VerifySignature(acceptor); err != nil {
		t.Errorf("signature broken by serialisation: %v", err)
	}
	// Tampering with the subject invalidates it.
	parsed.Subject = "intruder"
	if err := parsed.VerifySignature(acceptor); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered err = %v", err)
	}
}

func TestConditions(t *testing.T) {
	a := New("i", "s", MethodPassword, "x", testTime, time.Minute)
	if err := a.CheckConditions(testTime.Add(-time.Second)); !errors.Is(err, ErrNotYetValid) {
		t.Errorf("early err = %v", err)
	}
	if err := a.CheckConditions(testTime.Add(30 * time.Second)); err != nil {
		t.Errorf("in-window err = %v", err)
	}
	if err := a.CheckConditions(testTime.Add(time.Minute)); !errors.Is(err, ErrExpired) {
		t.Errorf("boundary err = %v (NotOnOrAfter is exclusive)", err)
	}
}

func TestFromElementErrors(t *testing.T) {
	if _, err := FromElement(xmlutil.New("NotAssertion")); err == nil {
		t.Error("wrong element accepted")
	}
	// Missing pieces.
	bad := New("i", "s", MethodKerberos, "x", testTime, time.Minute).Element()
	bad.Children = nil // drop Conditions and statement
	if _, err := FromElement(bad); err == nil {
		t.Error("assertion without conditions accepted")
	}
	noSubj := New("i", "s", MethodKerberos, "x", testTime, time.Minute).Element()
	stmt := noSubj.Child("AuthenticationStatement")
	stmt.Children = nil
	if _, err := FromElement(noSubj); err == nil {
		t.Error("assertion without subject accepted")
	}
	badTime := New("i", "s", MethodKerberos, "x", testTime, time.Minute).Element()
	badTime.SetAttr("IssueInstant", "not-a-time")
	if _, err := FromElement(badTime); err == nil {
		t.Error("bad timestamp accepted")
	}
	foreign := New("i", "s", MethodKerberos, "x", testTime, time.Minute).Element()
	foreign.Space = saml2NS
	if _, err := FromElement(foreign); err == nil {
		t.Error("assertion in another namespace accepted")
	}
}

func TestEnvelopeAttachExtract(t *testing.T) {
	initiator, _ := contextPair(t)
	a := New("ui", "cyoun", MethodKerberos, "s1", testTime, time.Minute)
	a.Sign(initiator)
	env := soap.NewEnvelope().AddBody(xmlutil.New("op"))
	Attach(env, a)
	// Over the wire.
	parsedEnv, err := soap.ParseEnvelopeBytes([]byte(env.Render()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromEnvelope(parsedEnv)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Subject != "cyoun" || got.Signature != a.Signature {
		t.Errorf("extracted = %+v", got)
	}
	// Absent assertion is nil, nil.
	empty := soap.NewEnvelope().AddBody(xmlutil.New("op"))
	got, err = FromEnvelope(empty)
	if got != nil || err != nil {
		t.Errorf("empty = %+v, %v", got, err)
	}
	// A foreign Assertion header ahead of the SAML 1.0 one does not hide
	// it, and one alone is no assertion at all.
	first := soap.NewEnvelope().AddHeader(foreignAssertion()).AddBody(xmlutil.New("op"))
	Attach(first, a)
	if got, err := FromEnvelope(wire(t, first)); err != nil || got == nil || got.Signature != a.Signature {
		t.Errorf("foreign header first = %+v, %v", got, err)
	}
	only := soap.NewEnvelope().AddHeader(foreignAssertion()).AddBody(xmlutil.New("op"))
	if got, err := FromEnvelope(wire(t, only)); got != nil || err != nil {
		t.Errorf("foreign header only = %+v, %v", got, err)
	}
}

// saml2NS is the SAML 2.0 assertion namespace, whose Assertion element
// shares the SAML 1.0 one's local name.
const saml2NS = "urn:oasis:names:tc:SAML:2.0:assertion"

// foreignAssertion is a SAML 2.0 Assertion header entry, which this
// package does not read.
func foreignAssertion() *xmlutil.Element {
	return xmlutil.NewNS(saml2NS, "Assertion").SetAttr("ID", "_x").SetAttr("IssueInstant", "2002-11-16T10:00:00Z")
}

// wire renders env and parses it back, as a receiving service sees it.
func wire(t *testing.T, env *soap.Envelope) *soap.Envelope {
	t.Helper()
	parsed, err := soap.ParseEnvelopeBytes([]byte(env.Render()))
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

func TestSignatureBoundToWindow(t *testing.T) {
	// Extending the validity window after signing breaks the signature:
	// conditions are covered by the MIC.
	initiator, acceptor := contextPair(t)
	a := New("ui", "cyoun", MethodKerberos, "s1", testTime, time.Minute)
	a.Sign(initiator)
	a.NotOnOrAfter = a.NotOnOrAfter.Add(time.Hour)
	if err := a.VerifySignature(acceptor); !errors.Is(err, ErrBadSignature) {
		t.Errorf("window extension err = %v", err)
	}
}

func TestUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		a := New("i", "s", MethodKerberos, "x", testTime, time.Minute)
		if seen[a.ID] {
			t.Fatalf("duplicate assertion ID %q", a.ID)
		}
		seen[a.ID] = true
	}
}
