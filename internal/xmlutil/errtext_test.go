package xmlutil

import (
	"strings"
	"testing"
)

// parseErrorTexts maps malformed documents to the exact error text the
// tree parser returns for them: one row per distinct error site. The texts
// reach clients verbatim, since core.Provider.Serve puts an unparseable
// request's error into its Client fault string.
var parseErrorTexts = []struct{ doc, want string }{
	// Document structure.
	{"", "xmlutil: parse: empty document"},
	{"  \n", "xmlutil: parse: empty document"},
	{`<?xml version="1.0"?>`, "xmlutil: parse: empty document"},
	{"<a>", "xmlutil: parse: unterminated document"},
	{"<a></a><b/>", "xmlutil: parse: multiple root elements"},
	{"</a>", "xmlutil: parse: unbalanced end element"},
	{"<a/></a>", "xmlutil: parse: unbalanced end element"},
	{"<", "xmlutil: parse at byte 1: unexpected EOF"},
	{strings.Repeat("<a>", maxDepth+1), "xmlutil: parse at byte 3003: element depth exceeds 1000"},

	// Character data (scanCharData) and entities (decodeEntity).
	{"<a>]]></a>", "xmlutil: parse at byte 3: unescaped ]]> not in CDATA section"},
	{"<a>\x01</a>", "xmlutil: parse at byte 3: illegal character code U+0001"},
	{"<a>\xff</a>", "xmlutil: parse at byte 3: invalid UTF-8"},
	{"<a>\ufffe</a>", "xmlutil: parse at byte 3: illegal character code U+FFFE"},
	{"<a>&amp</a>", "xmlutil: parse at byte 7: invalid character entity (no semicolon)"},
	{"<a>&;</a>", "xmlutil: parse at byte 5: invalid character entity &;"},
	{"<a>&#;</a>", "xmlutil: parse at byte 6: invalid character entity &#;"},
	{"<a>&#x;</a>", "xmlutil: parse at byte 7: invalid character entity &#x;"},
	{"<a>&#12a;</a>", "xmlutil: parse at byte 9: invalid character entity &#12a;"},
	{"<a>&#xZ;</a>", "xmlutil: parse at byte 8: invalid character entity &#xZ;"},
	{"<a>&#x110000;</a>", "xmlutil: parse at byte 13: illegal character code in entity &#x110000;"},
	{"<a>&#0;</a>", "xmlutil: parse at byte 7: illegal character code U+0000"},
	{"<a>&#xD800;</a>", "xmlutil: parse at byte 11: illegal character code U+D800"},
	{"<a>&bogus;</a>", "xmlutil: parse at byte 10: invalid character entity &bogus;"},
	{"x&bogus;<a/>", "xmlutil: parse at byte 8: invalid character entity &bogus;"},

	// Directives, comments, CDATA and processing instructions.
	{"<!DOCTYPE a><a/>", "xmlutil: parse at byte 1: directives (<!...>) are not supported"},
	{"<a><!ELEMENT a></a>", "xmlutil: parse at byte 4: directives (<!...>) are not supported"},
	{"<a><!-- x -- y --></a>", `xmlutil: parse at byte 10: invalid sequence "--" not allowed in comments`},
	{"<a><!-- \x01 --></a>", "xmlutil: parse at byte 8: illegal character code U+0001"},
	{"<a><!-- \xff --></a>", "xmlutil: parse at byte 8: illegal character in comment"},
	{"<a><!-- open", "xmlutil: parse at byte 12: unterminated comment"},
	{"<a><![CDATA[\x01]]></a>", "xmlutil: parse at byte 12: illegal character code U+0001"},
	{"<a><![CDATA[\xff]]></a>", "xmlutil: parse at byte 12: illegal character in CDATA section"},
	{"<a><![CDATA[open", "xmlutil: parse at byte 16: unterminated CDATA section"},
	{"<?pi open", "xmlutil: parse at byte 9: unterminated processing instruction"},
	{"<a><?pi", "xmlutil: parse at byte 7: unterminated processing instruction"},

	// Names.
	{"< a/>", "xmlutil: parse at byte 1: expected name, found ' '"},
	{"<1a/>", "xmlutil: parse at byte 1: expected name, found '1'"},
	{"<\xff/>", "xmlutil: parse at byte 1: invalid rune in name"},
	{"<a\xff/>", "xmlutil: parse at byte 2: invalid rune in name"},
	{"<a:b:c/>", "xmlutil: parse at byte 4: name with more than one colon"},

	// Start tags and attribute values.
	{`<a b="1"`, "xmlutil: parse at byte 8: unexpected EOF in element <a>"},
	{"<a/ >", "xmlutil: parse at byte 3: expected /> in element <a>"},
	{"<a b/>", "xmlutil: parse at byte 4: attribute name without = in element <a>"},
	{`<a b c="1"/>`, "xmlutil: parse at byte 5: attribute name without = in element <a>"},
	{"<a b=1/>", "xmlutil: parse at byte 5: unquoted or missing attribute value in element"},
	{`<a b="1`, "xmlutil: parse at byte 7: unterminated quoted string"},
	{`<a b="<"/>`, "xmlutil: parse at byte 6: unescaped < inside quoted string"},
	{"<a b=\"\x01\"/>", "xmlutil: parse at byte 6: illegal character code U+0001"},
	{"<a b=\"\xff\"/>", "xmlutil: parse at byte 6: invalid UTF-8"},
	{"<a b=\"\ufffe\"/>", "xmlutil: parse at byte 6: illegal character code U+FFFE"},
	{`<a b="&bogus;"/>`, "xmlutil: parse at byte 14: invalid character entity &bogus;"},
	{`<a b="&amp"/>`, "xmlutil: parse at byte 11: invalid character entity (no semicolon)"},

	// End tags.
	{"<a></", "xmlutil: parse at byte 5: expected name"},
	{"<a></1>", "xmlutil: parse at byte 5: expected name, found '1'"},
	{"<a></a b>", "xmlutil: parse at byte 7: invalid characters between </a and >"},
	{"<a></a", "xmlutil: parse at byte 6: invalid characters between </a and >"},
	{"<a></b>", "xmlutil: parse at byte 7: element <a> closed by </b>"},
	{`<p:a xmlns:p="u"></q:a>`, "xmlutil: parse at byte 23: element <p:a> closed by </q:a>"},
	{`<p:a xmlns:p="u" xmlns:q="u"></q:a>`, "xmlutil: parse at byte 35: element <p:a> closed by </q:a>"},
}

// TestParseErrorTexts pins the exact error text of every parser error
// site, on the retained entry point and on a pooled carve alike.
func TestParseErrorTexts(t *testing.T) {
	for _, c := range parseErrorTexts {
		if _, err := ParseString(c.doc); err == nil || err.Error() != c.want {
			t.Errorf("ParseString(%.40q) error = %v, want %q", c.doc, err, c.want)
		}
		arena := AcquireArena()
		if _, err := carveRoot([]byte(c.doc), arena); err == nil || err.Error() != c.want {
			t.Errorf("carveRoot(%.40q) error = %v, want %q", c.doc, err, c.want)
		}
		arena.Release()
	}
}
