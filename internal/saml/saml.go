// Package saml implements the Security Assertion Markup Language subset of
// Section 4: mechanism-independent, digitally signed claims about
// authentication. Assertions carry an authentication statement, validity
// conditions, and a signature computed with the GSS-API MIC primitive
// (matching the paper's "signing methods based on the GSS API wrap and
// unwrap methods"). Assertions ride in SOAP headers; the helpers here
// attach them to and extract them from envelopes.
package saml

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/gss"
	"repro/internal/soap"
	"repro/internal/xmlutil"
)

// AssertionNS is the SAML 1.0 assertion namespace.
const AssertionNS = "urn:oasis:names:tc:SAML:1.0:assertion"

// Authentication method identifiers.
const (
	MethodKerberos = "urn:ietf:rfc:1510" // Kerberos per SAML 1.0
	MethodPassword = "urn:oasis:names:tc:SAML:1.0:am:password"
)

// Errors returned by assertion validation.
var (
	ErrNotYetValid  = errors.New("saml: assertion not yet valid")
	ErrExpired      = errors.New("saml: assertion expired")
	ErrBadSignature = errors.New("saml: signature verification failed")
	ErrUnsigned     = errors.New("saml: assertion is unsigned")
)

// Assertion is a SAML authentication assertion.
type Assertion struct {
	// ID is the unique assertion identifier.
	ID string
	// Issuer names the authority that issued the assertion (the
	// Authentication Service or the UI server's client session object).
	Issuer string
	// IssueInstant is the issuance time.
	IssueInstant time.Time
	// Subject is the authenticated principal.
	Subject string
	// Method is the authentication method URI.
	Method string
	// AuthInstant is when the subject authenticated.
	AuthInstant time.Time
	// NotBefore / NotOnOrAfter bound the validity window.
	NotBefore    time.Time
	NotOnOrAfter time.Time
	// SessionID names the Authentication Service session whose key halves
	// can verify the signature (the handle of Figure 2's session objects).
	SessionID string
	// Signature is the GSS MIC over the canonical unsigned assertion.
	Signature string
}

// newID generates a random hex assertion ID.
func newID() string {
	b := make([]byte, 12)
	if _, err := rand.Read(b); err != nil {
		panic("saml: entropy unavailable: " + err.Error())
	}
	return "_" + hex.EncodeToString(b)
}

// New constructs an unsigned assertion for a subject with the given
// validity window.
func New(issuer, subject, method, sessionID string, now time.Time, validity time.Duration) *Assertion {
	return &Assertion{
		ID:           newID(),
		Issuer:       issuer,
		IssueInstant: now,
		Subject:      subject,
		Method:       method,
		AuthInstant:  now,
		NotBefore:    now,
		NotOnOrAfter: now.Add(validity),
		SessionID:    sessionID,
	}
}

const timeLayout = "2006-01-02T15:04:05.000Z"

func formatTime(t time.Time) string { return t.UTC().Format(timeLayout) }

func parseTime(s string) (time.Time, error) { return time.Parse(timeLayout, s) }

// Element renders the assertion, including the signature when present.
func (a *Assertion) Element() *xmlutil.Element {
	el := xmlutil.NewNS(AssertionNS, "Assertion").
		SetAttr("AssertionID", a.ID).
		SetAttr("Issuer", a.Issuer).
		SetAttr("IssueInstant", formatTime(a.IssueInstant)).
		SetAttr("MajorVersion", "1").
		SetAttr("MinorVersion", "0")
	cond := xmlutil.NewNS(AssertionNS, "Conditions").
		SetAttr("NotBefore", formatTime(a.NotBefore)).
		SetAttr("NotOnOrAfter", formatTime(a.NotOnOrAfter))
	el.Add(cond)
	stmt := xmlutil.NewNS(AssertionNS, "AuthenticationStatement").
		SetAttr("AuthenticationMethod", a.Method).
		SetAttr("AuthenticationInstant", formatTime(a.AuthInstant))
	subj := xmlutil.NewNS(AssertionNS, "Subject")
	subj.AddTextNS(AssertionNS, "NameIdentifier", a.Subject)
	stmt.Add(subj)
	el.Add(stmt)
	if a.SessionID != "" {
		el.SetAttr("SessionID", a.SessionID)
	}
	if a.Signature != "" {
		sig := xmlutil.NewNS(AssertionNS, "Signature")
		sig.Text = a.Signature
		el.Add(sig)
	}
	return el
}

// FromElement parses an assertion element, which must be a SAML 1.0
// Assertion in AssertionNS.
func FromElement(el *xmlutil.Element) (*Assertion, error) {
	if el.Name != "Assertion" {
		return nil, fmt.Errorf("saml: element %q is not Assertion", el.Name)
	}
	if el.Space != AssertionNS {
		return nil, fmt.Errorf("saml: Assertion in namespace %q, not %q", el.Space, AssertionNS)
	}
	a := &Assertion{
		ID:        el.AttrDefault("AssertionID", ""),
		Issuer:    el.AttrDefault("Issuer", ""),
		SessionID: el.AttrDefault("SessionID", ""),
	}
	var err error
	if a.IssueInstant, err = parseTime(el.AttrDefault("IssueInstant", "")); err != nil {
		return nil, fmt.Errorf("saml: bad IssueInstant: %w", err)
	}
	cond := el.Child("Conditions")
	if cond == nil {
		return nil, errors.New("saml: assertion has no Conditions")
	}
	if a.NotBefore, err = parseTime(cond.AttrDefault("NotBefore", "")); err != nil {
		return nil, fmt.Errorf("saml: bad NotBefore: %w", err)
	}
	if a.NotOnOrAfter, err = parseTime(cond.AttrDefault("NotOnOrAfter", "")); err != nil {
		return nil, fmt.Errorf("saml: bad NotOnOrAfter: %w", err)
	}
	stmt := el.Child("AuthenticationStatement")
	if stmt == nil {
		return nil, errors.New("saml: assertion has no AuthenticationStatement")
	}
	a.Method = stmt.AttrDefault("AuthenticationMethod", "")
	if a.AuthInstant, err = parseTime(stmt.AttrDefault("AuthenticationInstant", "")); err != nil {
		return nil, fmt.Errorf("saml: bad AuthenticationInstant: %w", err)
	}
	if subj := stmt.Child("Subject"); subj != nil {
		a.Subject = subj.ChildText("NameIdentifier")
	}
	if a.Subject == "" {
		return nil, errors.New("saml: assertion has no Subject")
	}
	if sig := el.Child("Signature"); sig != nil {
		a.Signature = sig.Text
	}
	return a, nil
}

// signingBytes returns the canonical serialisation of the assertion with
// the signature element removed — the input to GetMIC/VerifyMIC.
func (a *Assertion) signingBytes() []byte {
	cp := *a
	cp.Signature = ""
	return []byte(cp.Element().Canonical())
}

// Sign computes the assertion signature with the given GSS context (the
// client session object's key half).
func (a *Assertion) Sign(ctx *gss.Context) {
	a.Signature = ctx.GetMIC(a.signingBytes())
}

// VerifySignature checks the signature with a GSS context holding the same
// session key (the Authentication Service's half).
func (a *Assertion) VerifySignature(ctx *gss.Context) error {
	if a.Signature == "" {
		return ErrUnsigned
	}
	if err := ctx.VerifyMIC(a.signingBytes(), a.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return nil
}

// CheckConditions validates the window at the given instant.
func (a *Assertion) CheckConditions(now time.Time) error {
	if now.Before(a.NotBefore) {
		return ErrNotYetValid
	}
	if !now.Before(a.NotOnOrAfter) {
		return ErrExpired
	}
	return nil
}

// Attach adds the assertion to a SOAP envelope header.
func Attach(env *soap.Envelope, a *Assertion) {
	env.AddHeader(a.Element())
}

// FromEnvelope extracts the first SAML assertion (an Assertion header in
// AssertionNS) from a SOAP envelope, or nil when the envelope carries
// none; a header of that name in another namespace is not one.
func FromEnvelope(env *soap.Envelope) (*Assertion, error) {
	h := env.HeaderNamed(AssertionNS, "Assertion")
	if h == nil {
		return nil, nil
	}
	return FromElement(h)
}
