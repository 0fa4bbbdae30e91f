// Package authsvc implements the assertion-based Authentication Service of
// Figure 2. The flow it realises, quoting the paper's atomic step:
//
//  1. A user logs in through a web browser and gets a Kerberos ticket on
//     the User Interface (UI) server.
//  2. The UI server creates a client session object that contacts the
//     Authentication Service, which launches a server session object; the
//     two establish a GSS context. "Each of these objects possesses one
//     half of the symmetric key set for a particular user."
//  3. Subsequent user interaction generates SOAP requests that include a
//     SAML assertion signed by the client object on the UI server.
//  4. The SOAP Service Provider (SPP) "does not check the signature of the
//     request directly but instead forwards to the Authentication Service,
//     which verifies the signature" and answers positively or negatively.
//
// Keeping the keytab on one well-secured server is the design motivation
// the paper gives; here only the Service holds the keytab, the UI server
// holds only tickets and session keys, and SPPs hold nothing but the
// Service's endpoint.
package authsvc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gss"
	"repro/internal/rpc"
	"repro/internal/saml"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// DefaultAssertionValidity bounds how long a signed assertion is accepted.
const DefaultAssertionValidity = 5 * time.Minute

// ServiceNS is the SOAP namespace of the Authentication Service.
const ServiceNS = "urn:gce:authsvc"

// soapDef is the declarative operation table exposing a Service over
// SOAP. Contract derivation and service deployment both read it.
func soapDef(s *Service) *rpc.Def {
	fail := func(code, format string, a ...interface{}) error {
		return soap.NewPortalError("AuthenticationService", code, format, a...)
	}
	return &rpc.Def{
		Name: "AuthenticationService",
		NS:   ServiceNS,
		Doc:  "SAML assertion issuing and verification backed by Kerberos/GSS.",
		Ops: []rpc.Op{
			{
				Name: "establishSession",
				Doc:  "Accepts a GSS context token and creates a server session object.",
				In:   []wsdl.Param{rpc.Str("contextToken")},
				Out:  []wsdl.Param{rpc.Str("sessionID")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					id, err := s.EstablishSession(in.Str("contextToken"))
					if err != nil {
						return nil, fail(soap.ErrCodeAuthFailed, "%v", err)
					}
					return rpc.Ret(id), nil
				},
			},
			{
				Name:       "verifyAssertion",
				Idempotent: true,
				Doc:        "Verifies a signed SAML assertion against the named session.",
				In:         []wsdl.Param{rpc.XML("assertion")},
				Out:        []wsdl.Param{rpc.Bool("valid"), rpc.Str("principal")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					el := in.XML("assertion")
					if el == nil {
						return nil, fail(soap.ErrCodeBadRequest, "missing assertion")
					}
					a, err := saml.FromElement(el)
					if err != nil {
						return nil, fail(soap.ErrCodeBadRequest, "%v", err)
					}
					principal, err := s.VerifyAssertion(a)
					if err != nil {
						// A negative verification is a normal response, not a
						// fault: the SPP decides what to do with it.
						return rpc.Ret(false, ""), nil
					}
					return rpc.Ret(true, principal), nil
				},
			},
			{
				Name: "closeSession",
				In:   []wsdl.Param{rpc.Str("sessionID")},
				Out:  []wsdl.Param{rpc.Bool("closed")},
				Handle: func(_ *core.Context, in rpc.Args) ([]interface{}, error) {
					if err := s.CloseSession(in.Str("sessionID")); err != nil {
						return nil, fail(soap.ErrCodeNoSuchResource, "%v", err)
					}
					return rpc.Ret(true), nil
				},
			},
		},
	}
}

// Contract returns the Authentication Service WSDL interface.
func Contract() *wsdl.Interface {
	return soapDef(nil).Interface()
}

// Service is the Authentication Service: the sole holder of the service
// keytab, managing server-side session objects.
type Service struct {
	keytab gss.Keytab
	now    func() time.Time

	mu       sync.RWMutex
	sessions map[string]*serverSession
	seq      int
}

// serverSession is the Authentication Service's half of one user's keys.
type serverSession struct {
	principal string
	ctx       *gss.Context
	created   time.Time
}

// NewService creates the Authentication Service around a keytab.
func NewService(keytab gss.Keytab) *Service {
	return &Service{keytab: keytab, now: time.Now, sessions: map[string]*serverSession{}}
}

// SetTimeSource overrides the clock.
func (s *Service) SetTimeSource(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// EstablishSession accepts a GSS context token (from a UI server's client
// session object) and creates the matching server session object.
func (s *Service) EstablishSession(contextToken string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, err := gss.AcceptContext(s.keytab, contextToken, s.now())
	if err != nil {
		return "", err
	}
	s.seq++
	id := fmt.Sprintf("authsess-%d", s.seq)
	s.sessions[id] = &serverSession{principal: ctx.Peer, ctx: ctx, created: s.now()}
	return id, nil
}

// VerifyAssertion checks an assertion's conditions and signature against
// the session named inside it, returning the authenticated principal.
func (s *Service) VerifyAssertion(a *saml.Assertion) (string, error) {
	s.mu.RLock()
	sess, ok := s.sessions[a.SessionID]
	now := s.now()
	s.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("authsvc: unknown session %q", a.SessionID)
	}
	if err := a.CheckConditions(now); err != nil {
		return "", err
	}
	if a.Subject != sess.principal {
		return "", fmt.Errorf("authsvc: assertion subject %q does not match session principal %q",
			a.Subject, sess.principal)
	}
	if err := a.VerifySignature(sess.ctx); err != nil {
		return "", err
	}
	return sess.principal, nil
}

// CloseSession discards a server session object.
func (s *Service) CloseSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return fmt.Errorf("authsvc: unknown session %q", id)
	}
	delete(s.sessions, id)
	return nil
}

// SessionCount reports live sessions (monitoring).
func (s *Service) SessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

// NewSOAPService exposes the Service as a deployable core.Service built
// from the declarative operation table.
func NewSOAPService(s *Service) *core.Service {
	return soapDef(s).MustBuild()
}

// --- UI-server side ----------------------------------------------------------

// ClientSession is the UI server's client session object: the user's half
// of the key set plus the session handle at the Authentication Service.
type ClientSession struct {
	// Principal is the logged-in user.
	Principal string
	// SessionID is the Authentication Service session handle.
	SessionID string

	ctx *gss.Context
	now func() time.Time
}

// Login performs the full Figure 2 login: Kerberos AS exchange at the KDC,
// GSS context initiation, and session establishment at the Authentication
// Service (reached through authClient, which may be local or a SOAP proxy).
func Login(kdc *gss.KDC, user, password, servicePrincipal string,
	establish func(contextToken string) (string, error), now func() time.Time) (*ClientSession, error) {
	if now == nil {
		now = time.Now
	}
	creds, err := kdc.Login(user, password, servicePrincipal)
	if err != nil {
		return nil, err
	}
	token, ctx, err := gss.InitContext(creds, now())
	if err != nil {
		return nil, err
	}
	sessionID, err := establish(token)
	if err != nil {
		return nil, err
	}
	return &ClientSession{Principal: user, SessionID: sessionID, ctx: ctx, now: now}, nil
}

// NewAssertion issues and signs a fresh assertion for the session's user.
func (cs *ClientSession) NewAssertion(validity time.Duration) *saml.Assertion {
	if validity <= 0 {
		validity = DefaultAssertionValidity
	}
	a := saml.New("ui-server", cs.Principal, saml.MethodKerberos, cs.SessionID, cs.now(), validity)
	a.Sign(cs.ctx)
	return a
}

// Interceptor returns a client interceptor that attaches a freshly signed
// assertion to every outgoing SOAP request.
func (cs *ClientSession) Interceptor() core.ClientInterceptor {
	return func(_ *soap.Call, env *soap.Envelope) error {
		saml.Attach(env, cs.NewAssertion(0))
		return nil
	}
}

// --- SPP side ----------------------------------------------------------------

// Verifier abstracts how an SPP reaches the Authentication Service: in-
// process for co-located deployment, or via SOAP with Client below.
type Verifier interface {
	// Verify returns the authenticated principal, or an error.
	Verify(a *saml.Assertion) (string, error)
}

// LocalVerifier verifies directly against an in-process Service.
type LocalVerifier struct {
	// Service is the co-located Authentication Service.
	Service *Service
}

// Verify implements Verifier.
func (v *LocalVerifier) Verify(a *saml.Assertion) (string, error) {
	return v.Service.VerifyAssertion(a)
}

// Client is a SOAP proxy to a remote Authentication Service.
type Client struct {
	c *core.Client
}

// NewClient binds to the Authentication Service endpoint.
func NewClient(t soap.Transport, endpoint string) *Client {
	return &Client{c: core.NewClient(t, endpoint, Contract())}
}

// EstablishSession forwards a GSS context token.
func (cl *Client) EstablishSession(contextToken string) (string, error) {
	return cl.c.CallText("establishSession", soap.Str("contextToken", contextToken))
}

// Verify implements Verifier over SOAP — the forwarding step of Figure 2.
func (cl *Client) Verify(a *saml.Assertion) (string, error) {
	resp, release, err := cl.c.Call(context.TODO(), "verifyAssertion", soap.XMLDoc("assertion", a.Element()))
	if err != nil {
		return "", err
	}
	defer release()
	if resp.ReturnText("valid") != "true" {
		return "", fmt.Errorf("authsvc: verification rejected")
	}
	return resp.ReturnText("principal"), nil
}

// CloseSession closes a session over SOAP.
func (cl *Client) CloseSession(id string) error {
	_, err := cl.c.CallText("closeSession", soap.Str("sessionID", id))
	return err
}

// RequireAssertion returns a provider middleware enforcing the Figure 2
// protocol on an SPP: every request must carry a SAML assertion that the
// Authentication Service accepts; the verified principal lands in the
// request context. It is the kernel's rpc.RequireAssertion specialised to
// this package's Verifier.
func RequireAssertion(v Verifier) core.Middleware {
	return rpc.RequireAssertion(v)
}
