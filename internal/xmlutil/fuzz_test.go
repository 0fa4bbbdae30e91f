package xmlutil

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"strings"
	"testing"
)

// referenceParse is the previous xmlutil.Parse implementation, verbatim: a
// tree builder over encoding/xml tokens. It is kept here as the oracle the
// hand-rolled scanner is differentially fuzzed against.
func referenceParse(r io.Reader) (*Element, error) {
	dec := xml.NewDecoder(r)
	var root *Element
	var stack []*Element
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			el := &Element{Space: t.Name.Space, Name: t.Name.Local}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				el.Attrs = append(el.Attrs, Attr{Space: a.Name.Space, Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("multiple root elements")
				}
				root = el
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, el)
			}
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("unbalanced end element")
			}
			top := stack[len(stack)-1]
			if len(top.Children) > 0 {
				top.Text = strings.TrimSpace(top.Text)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].Text += string(t)
			}
		}
	}
	if root == nil {
		return nil, errors.New("empty document")
	}
	if len(stack) != 0 {
		return nil, errors.New("unterminated document")
	}
	return root, nil
}

// toleratedDivergence reports whether data exercises a construct on which
// the scanner intentionally differs from encoding/xml:
//
//   - "<!"  — DTDs/directives are rejected by the scanner but silently
//     skipped by encoding/xml (comments and CDATA also start with "<!",
//     but on those the two agree, so tolerance only matters on actual
//     disagreement);
//   - "<?"  — the scanner skips every processing instruction, while
//     encoding/xml enforces declaration placement/encoding rules;
//   - non-ASCII bytes — exotic Unicode name characters use encoding/xml's
//     frozen Unicode tables, which the scanner approximates.
func toleratedDivergence(data []byte) bool {
	if bytes.Contains(data, []byte("<!")) || bytes.Contains(data, []byte("<?")) {
		return true
	}
	for _, b := range data {
		if b >= 0x80 {
			return true
		}
	}
	return false
}

// renderableNames reports whether every element and attribute name in the
// tree would survive Render -> Parse unchanged: ASCII names must start with
// a letter or '_' and contain no colon (Render would reinterpret one as a
// namespace prefix).
func renderableNames(el *Element) bool {
	ok := true
	el.Walk(func(e *Element) bool {
		names := make([]string, 0, 1+len(e.Attrs))
		names = append(names, e.Name)
		for _, a := range e.Attrs {
			names = append(names, a.Name)
		}
		for _, n := range names {
			if n == "" || strings.Contains(n, ":") {
				ok = false
				return false
			}
			if c := n[0]; c < 0x80 && !(c == '_' || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z') {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// FuzzParseRoundTrip differentially fuzzes the hand-rolled scanner against
// the encoding/xml reference decoder: on input both accept, the trees must
// be identical; on input only one accepts, the divergence must be one of the
// documented subset differences. Inputs are capped below the size needed to
// reach the scanner's depth limit (which the reference does not have).
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<?xml version="1.0" encoding="UTF-8"?><a b="c">text</a>`,
		"\xef\xbb\xbf<?xml version=\"1.0\"?>\n<doc/>",
		`<ns0:Envelope xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"><ns0:Body><ns1:op xmlns:ns1="urn:bench" ns0:encodingStyle="http://schemas.xmlsoap.org/soap/encoding/"><a xsi:type="xsd:string" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">hello</a><b xsi:type="xsd:int" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">42</b></ns1:op></ns0:Body></ns0:Envelope>`,
		`<host name="modi4"><ip>141.142.30.72</ip><queue system="PBS"><maxWallTime>3600</maxWallTime></queue></host>`,
		`<d><![CDATA[a < b && c]]></d>`,
		`<d><!-- comment -->x<!-- more --></d>`,
		"<d a=\"x&#xA;y\">A&#65;&amp;&lt;&gt;&quot;&apos;</d>",
		`<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"/><q:c/></p:a>`,
		`<a xmlns="urn:default"><b/></a>`,
		"<d>line1\r\nline2\rline3</d>",
		`<doc väl="ü"><名前>日本語</名前></doc>`,
		`<a><b></a>`,
		`<a>&unknown;</a>`,
		`<a b="<"/>`,
		`<a>x]]>y</a>`,
		`<a/><b/>`,
		`not xml at all <`,
		``,
		`<a  b = "c"  d='e' />`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	for _, tc := range attrValueMemoDocs {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return // stay below the scanner's depth limit
		}
		got, gotErr := ParseBytes(data)
		want, wantErr := referenceParse(bytes.NewReader(data))

		switch {
		case gotErr == nil && wantErr == nil:
			if !got.Equal(want) {
				t.Fatalf("tree mismatch on %q:\nscanner:\n%s\nreference:\n%s",
					data, got.RenderIndent(), want.RenderIndent())
			}
		case gotErr == nil && wantErr != nil:
			if !toleratedDivergence(data) {
				t.Fatalf("scanner accepted %q but reference rejected it: %v", data, wantErr)
			}
		case gotErr != nil && wantErr == nil:
			if !toleratedDivergence(data) {
				t.Fatalf("reference accepted %q but scanner rejected it: %v", data, gotErr)
			}
		}

		// Whatever parsed must render back into something the scanner
		// accepts and reproduces: the round-trip invariant every wire
		// dialect in the repository depends on. Degenerate names (digit-led
		// locals freed by a prefix, colons inside local names) parse but
		// were never renderable — Render has always assumed sane names — so
		// they are excluded.
		if gotErr == nil && renderableNames(got) {
			again, err := ParseString(got.Render())
			if err != nil {
				t.Fatalf("re-parse of rendered tree failed on %q: %v", data, err)
			}
			if !got.Equal(again) {
				t.Fatalf("render round trip mismatch on %q", data)
			}
		}

		// A tree carved into a pooled arena must agree with the retained
		// path bit for bit.
		arena := AcquireArena()
		defer arena.Release()
		carved, perr := carveRoot(data, arena)
		if (perr == nil) != (gotErr == nil) {
			t.Fatalf("pooled/retained disagreement on %q: %v vs %v", data, perr, gotErr)
		}
		if perr == nil && !carved.Equal(got) {
			t.Fatalf("pooled tree differs on %q", data)
		}
	})
}
