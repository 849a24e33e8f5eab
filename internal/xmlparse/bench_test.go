package xmlparse

import (
	"bytes"
	"strings"
	"testing"
)

// benchDoc builds a ~1 MB XML document.
func benchDoc() []byte {
	var b bytes.Buffer
	b.WriteString("<root>")
	for i := 0; i < 10000; i++ {
		b.WriteString("<item><name>gadget</name><desc>some text content here</desc></item>")
	}
	b.WriteString("</root>")
	return b.Bytes()
}

type nullHandler struct{}

func (nullHandler) Begin(string) error { return nil }
func (nullHandler) Text([]byte) error  { return nil }
func (nullHandler) End() error         { return nil }

// BenchmarkParse measures the SAX pass alone (the first half of
// database creation).
func BenchmarkParse(b *testing.B) {
	doc := benchDoc()
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		if err := Parse(bytes.NewReader(doc), nullHandler{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseTree includes building the in-memory binary tree.
func BenchmarkParseTree(b *testing.B) {
	doc := string(benchDoc())
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseTree(strings.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}
