package authsvc

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gss"
	"repro/internal/saml"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

var t0 = time.Date(2002, 6, 1, 9, 0, 0, 0, time.UTC)

// fixture wires the full Figure 2 topology: KDC, Authentication Service
// (optionally reached over SOAP), a protected SPP with an echo service,
// and a UI-server client session.
type fixture struct {
	kdc     *gss.KDC
	service *Service
	now     time.Time
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{now: t0}
	f.kdc = gss.NewKDC("GRID.IU.EDU")
	f.kdc.SetTimeSource(func() time.Time { return f.now })
	f.kdc.AddPrincipal("cyoun", "hunter2")
	f.kdc.AddPrincipal("marpierce", "gateway")
	f.kdc.AddPrincipal("authsvc/grids.iu.edu", "keytab-secret")
	kt, err := f.kdc.Keytab("authsvc/grids.iu.edu")
	if err != nil {
		t.Fatal(err)
	}
	f.service = NewService(kt)
	f.service.SetTimeSource(func() time.Time { return f.now })
	return f
}

func (f *fixture) login(t *testing.T, user, password string) *ClientSession {
	t.Helper()
	cs, err := Login(f.kdc, user, password, "authsvc/grids.iu.edu",
		f.service.EstablishSession, func() time.Time { return f.now })
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestLoginAndVerify(t *testing.T) {
	f := newFixture(t)
	cs := f.login(t, "cyoun", "hunter2")
	if cs.Principal != "cyoun" || cs.SessionID == "" {
		t.Fatalf("session = %+v", cs)
	}
	if f.service.SessionCount() != 1 {
		t.Errorf("sessions = %d", f.service.SessionCount())
	}
	a := cs.NewAssertion(0)
	principal, err := f.service.VerifyAssertion(a)
	if err != nil || principal != "cyoun" {
		t.Errorf("verify = %q, %v", principal, err)
	}
}

func TestLoginFailures(t *testing.T) {
	f := newFixture(t)
	if _, err := Login(f.kdc, "cyoun", "wrong", "authsvc/grids.iu.edu",
		f.service.EstablishSession, func() time.Time { return f.now }); err == nil {
		t.Error("bad password login succeeded")
	}
	if _, err := Login(f.kdc, "ghost", "x", "authsvc/grids.iu.edu",
		f.service.EstablishSession, func() time.Time { return f.now }); err == nil {
		t.Error("unknown user login succeeded")
	}
}

func TestVerifyRejections(t *testing.T) {
	f := newFixture(t)
	cs := f.login(t, "cyoun", "hunter2")
	// Unknown session.
	a := cs.NewAssertion(0)
	a.SessionID = "authsess-999"
	if _, err := f.service.VerifyAssertion(a); err == nil {
		t.Error("unknown session accepted")
	}
	// Expired assertion.
	a2 := cs.NewAssertion(time.Minute)
	f.now = f.now.Add(2 * time.Minute)
	if _, err := f.service.VerifyAssertion(a2); err == nil {
		t.Error("expired assertion accepted")
	}
	f.now = t0
	// Subject mismatch: cyoun's session cannot vouch for marpierce.
	a3 := cs.NewAssertion(0)
	a3.Subject = "marpierce"
	if _, err := f.service.VerifyAssertion(a3); err == nil {
		t.Error("subject substitution accepted")
	}
	// Forged signature (different session's key).
	cs2 := f.login(t, "marpierce", "gateway")
	a4 := cs2.NewAssertion(0)
	a4.SessionID = cs.SessionID
	a4.Subject = "cyoun"
	if _, err := f.service.VerifyAssertion(a4); err == nil {
		t.Error("cross-session forgery accepted")
	}
}

func TestCloseSession(t *testing.T) {
	f := newFixture(t)
	cs := f.login(t, "cyoun", "hunter2")
	if err := f.service.CloseSession(cs.SessionID); err != nil {
		t.Fatal(err)
	}
	if err := f.service.CloseSession(cs.SessionID); err == nil {
		t.Error("double close accepted")
	}
	if _, err := f.service.VerifyAssertion(cs.NewAssertion(0)); err == nil {
		t.Error("assertion verified against closed session")
	}
}

func echoContract() *wsdl.Interface {
	return &wsdl.Interface{
		Name:     "Echo",
		TargetNS: "urn:test:echo",
		Operations: []wsdl.Operation{{
			Name:   "whoami",
			Output: []wsdl.Param{{Name: "principal", Type: "string"}},
		}},
	}
}

func protectedSPP(v Verifier) *core.Provider {
	p := core.NewProvider("spp", "loopback://spp")
	p.Use(RequireAssertion(v))
	svc := core.NewService(echoContract()).
		Handle("whoami", func(ctx *core.Context, _ soap.Args) ([]soap.Value, error) {
			return []soap.Value{soap.Str("principal", ctx.Principal)}, nil
		})
	p.MustRegister(svc)
	return p
}

// TestAtomicStepLocalVerifier runs the whole Figure 2 atomic step with the
// SPP verifying through an in-process Authentication Service.
func TestAtomicStepLocalVerifier(t *testing.T) {
	f := newFixture(t)
	cs := f.login(t, "cyoun", "hunter2")
	spp := protectedSPP(&LocalVerifier{Service: f.service})
	client := core.NewClient(spp.Loopback(), "x", echoContract())
	client.Use(cs.Interceptor())
	got, err := client.CallText("whoami")
	if err != nil {
		t.Fatal(err)
	}
	if got != "cyoun" {
		t.Errorf("principal = %q", got)
	}
}

// TestAtomicStepSOAPVerifier is the distributed variant: the SPP forwards
// assertions to the Authentication Service over SOAP, exactly as the paper
// describes ("The SPP does not check the signature of the request directly
// but instead forwards to the Authentication Service").
func TestAtomicStepSOAPVerifier(t *testing.T) {
	f := newFixture(t)
	cs := f.login(t, "cyoun", "hunter2")
	// Authentication Service SSP.
	authSSP := core.NewProvider("auth-ssp", "loopback://auth")
	authSSP.MustRegister(NewSOAPService(f.service))
	authClient := NewClient(authSSP.Loopback(), "loopback://auth/AuthenticationService")
	// Protected SPP using the SOAP verifier.
	spp := protectedSPP(authClient)
	client := core.NewClient(spp.Loopback(), "x", echoContract())
	client.Use(cs.Interceptor())
	got, err := client.CallText("whoami")
	if err != nil {
		t.Fatal(err)
	}
	if got != "cyoun" {
		t.Errorf("principal = %q", got)
	}
}

func TestSPPRejectsMissingAndBadAssertions(t *testing.T) {
	f := newFixture(t)
	spp := protectedSPP(&LocalVerifier{Service: f.service})
	client := core.NewClient(spp.Loopback(), "x", echoContract())
	// No assertion at all.
	_, err := client.CallText("whoami")
	pe := soap.AsPortalError(err)
	if pe == nil || pe.Code != soap.ErrCodeAuthFailed {
		t.Errorf("missing assertion err = %v", err)
	}
	// Unsigned assertion.
	client2 := core.NewClient(spp.Loopback(), "x", echoContract())
	client2.Use(func(_ *soap.Call, env *soap.Envelope) error {
		a := saml.New("rogue", "cyoun", saml.MethodKerberos, "authsess-1", f.now, time.Minute)
		saml.Attach(env, a)
		return nil
	})
	_, err = client2.CallText("whoami")
	if pe := soap.AsPortalError(err); pe == nil || pe.Code != soap.ErrCodeAuthFailed {
		t.Errorf("unsigned assertion err = %v", err)
	}
}

func TestSOAPServiceSessionLifecycle(t *testing.T) {
	f := newFixture(t)
	authSSP := core.NewProvider("auth-ssp", "loopback://auth")
	authSSP.MustRegister(NewSOAPService(f.service))
	cl := NewClient(authSSP.Loopback(), "loopback://auth/AuthenticationService")

	cs, err := Login(f.kdc, "cyoun", "hunter2", "authsvc/grids.iu.edu",
		cl.EstablishSession, func() time.Time { return f.now })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cs.SessionID, "authsess-") {
		t.Errorf("session id = %q", cs.SessionID)
	}
	principal, err := cl.Verify(cs.NewAssertion(0))
	if err != nil || principal != "cyoun" {
		t.Errorf("verify over SOAP = %q, %v", principal, err)
	}
	if err := cl.CloseSession(cs.SessionID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Verify(cs.NewAssertion(0)); err == nil {
		t.Error("verify after close succeeded")
	}
	if err := cl.CloseSession(cs.SessionID); err == nil {
		t.Error("double close over SOAP accepted")
	}
	// Bad context token.
	if _, err := cl.EstablishSession("garbage"); err == nil {
		t.Error("garbage token accepted")
	}
}
