package xmlutil

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/allocbudget"
)

// Independent references for the escape kernel: strings.Replacer works
// byte by byte on single-byte patterns, so it passes every other byte —
// invalid UTF-8 included — through unchanged, which is the kernel's
// contract.
var (
	textEscapeRef = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;")
	attrEscapeRef = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;",
		"\n", "&#10;", "\t", "&#9;", "\r", "&#13;")
)

// FuzzEscape checks every way into the escape kernel — the Writer's Text
// and Attr, and escapeTo appending to a buffer with little spare room —
// against the strings.Replacer references on arbitrary bytes: it is the
// only escaper, so no second encoder can catch an escaping bug.
func FuzzEscape(f *testing.F) {
	for _, s := range []string{
		"", "plain", "&", "<>&\"'", "a\xffb", "a\xffb<c", "\xe6\x97\xa5\xe6\x9c\xac<\xe8",
		"tab\tnl\ncr\r", "&&&&&&&&&&&&&&&&&&&&", "<&<&>\"' \n\tabcXYZ019",
		strings.Repeat("clean run ", 20) + "&" + strings.Repeat("x", 9),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		wantText, wantAttr := textEscapeRef.Replace(s), attrEscapeRef.Replace(s)

		var b bytes.Buffer
		w := NewWriter(&b)
		w.Start("", "e")
		w.Attr("", "v", s)
		w.Text(s)
		w.End()
		want := `<e v="` + wantAttr + `">` + wantText + `</e>`
		if s == "" {
			want = `<e v=""/>`
		}
		if b.String() != want {
			t.Fatalf("Writer on %q = %q, want %q", s, b.String(), want)
		}

		// Appending after existing content into a buffer with little or
		// enough free space exercises the kernel's growth.
		for _, room := range []int{0, 1, len(s)} {
			for _, c := range []struct {
				tab  *[256]uint8
				want string
			}{{&escText, wantText}, {&escAttr, wantAttr}} {
				buf := bytes.NewBuffer(make([]byte, 3, 3+room))
				escapeTo(buf, s, c.tab)
				if got := buf.String()[3:]; got != c.want {
					t.Fatalf("escapeTo(%q) with %d spare bytes = %q, want %q", s, room, got, c.want)
				}
			}
		}
	})
}

// allocatedPerCall reports the mean number of heap bytes fn allocates.
func allocatedPerCall(runs int, fn func()) uint64 {
	fn() // warm the buffer pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestUnescapeExactSize pins the decoded-string contract: the string is
// exactly the kernel's output, costs one allocation, and that allocation
// is sized to the output, not to the (longer) encoded span — a retained
// work buffer's capacity would leave slack in every string a service
// stores.
func TestUnescapeExactSize(t *testing.T) {
	for _, c := range []struct{ name, span, want string }{
		{"lt", strings.Repeat("&lt;", 8192), strings.Repeat("<", 8192)},
		{"amp", strings.Repeat("ab&amp;", 6000), strings.Repeat("ab&", 6000)},
		{"refs", strings.Repeat("&#x4E2D;&quot;", 3000), strings.Repeat("中\"", 3000)},
		{"crlf", strings.Repeat("x\r\n&gt;\r", 5000), strings.Repeat("x\n>\n", 5000)},
	} {
		t.Run(c.name, func(t *testing.T) {
			span := []byte(c.span)
			dst, msg := unescapeTo(nil, span, true)
			if msg != "" || string(dst) != c.want {
				t.Fatalf("unescapeTo: %q, output mismatch (len %d, want %d)", msg, len(dst), len(c.want))
			}
			s, msg := unescapeString(span, true)
			if msg != "" || len(s) != len(dst) || s != c.want {
				t.Fatalf("unescapeString: %q, len %d, want %d", msg, len(s), len(dst))
			}

			doc := []byte("<a>" + c.span + "</a>")
			cur := AcquireCursor(doc)
			defer cur.Release()
			for _, want := range []Tok{TokStart, TokText} {
				if tok, err := cur.Next(); tok != want || err != nil {
					t.Fatalf("Next = %v, %v; want %v", tok, err, want)
				}
			}
			if raceEnabled {
				return // the race detector's sync.Pool drops buffers at random
			}
			if n := testing.AllocsPerRun(20, func() { _, _ = cur.Text() }); n != 1 {
				t.Errorf("Cursor.Text allocates %v times, want exactly 1", n)
			}
			// Large objects round up to whole 8 KiB pages; anything near
			// len(span) means the work buffer's capacity leaked into s.
			if got, limit := allocatedPerCall(50, func() { _, _ = cur.Text() }), uint64(len(c.want)+8<<10); got > limit {
				t.Errorf("Cursor.Text allocates %d bytes per call for a %d-byte string (span %d), want at most %d",
					got, len(c.want), len(span), limit)
			}
		})
	}
}

// benchText is n bytes of random text drawn from alphabet.
func benchText(alphabet string, n int) string {
	r := rand.New(rand.NewSource(1))
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// textKernel is one BenchmarkTextKernels case: a call over n input bytes
// and its budget of allocations per call, which TestTextKernelAllocs
// enforces.
type textKernel struct {
	name   string
	n      int
	op     func() error
	allocs float64
}

// textKernels returns the three bulk-path kernels — escape (encode), scan
// (character-data validation) and decode (unescape into a string) — on a
// clean payload and on one drawn from the SRB transfer workload's
// alphabet, which is dense in '<' and '&'.
func textKernels() []textKernel {
	payloads := []struct{ name, alphabet string }{
		{"clean", "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789\n"},
		{"dense", "<&<&>\"' \n\tabcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"},
	}
	var out []textKernel
	for _, p := range payloads {
		text := benchText(p.alphabet, 256<<10)
		var escaped, buf bytes.Buffer
		escapeTo(&escaped, text, &escText)
		wire := escaped.Bytes()
		out = append(out,
			textKernel{"escape/" + p.name, len(text), func() error {
				buf.Reset()
				escapeTo(&buf, text, &escText)
				return nil
			}, 0},
			textKernel{"scan/" + p.name, len(wire), func() error {
				if end, _, msg := scanCharData(wire, 0); end != len(wire) || msg != "" {
					return fmt.Errorf("scan stopped at %d: %s", end, msg)
				}
				return nil
			}, 0},
			textKernel{"decode/" + p.name, len(wire), func() error {
				if s, msg := unescapeString(wire, true); len(s) != len(text) || msg != "" {
					return fmt.Errorf("decode: %q, %d bytes", msg, len(s))
				}
				return nil
			}, 1})
	}
	return out
}

// BenchmarkTextKernels measures textKernels in MB/s of their input.
func BenchmarkTextKernels(b *testing.B) {
	for _, k := range textKernels() {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(k.n))
			for b.Loop() {
				if err := k.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTextKernelAllocs holds each text kernel to its allocation budget.
func TestTextKernelAllocs(t *testing.T) {
	for _, k := range textKernels() {
		t.Run(k.name, func(t *testing.T) {
			allocbudget.Check(t, k.allocs, func() {
				if err := k.op(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
