package oracle

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseCase: a reproducer file is either refused or reads back as
// itself — the formatted case parses, and formats to the same text — so
// gmtcheck -replay never runs something other than what was recorded
// (ROADMAP 6c).
func FuzzParseCase(f *testing.F) {
	files, err := filepath.Glob("testdata/corpus/*.ir")
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus to seed from (%v)", err)
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseCase(text)
		if err != nil {
			return
		}
		once := FormatRepro(c, c.Replay)
		back, err := ParseCase(once)
		if err != nil {
			t.Fatalf("formatted case does not parse: %v\n%s", err, once)
		}
		if twice := FormatRepro(back, back.Replay); twice != once {
			t.Fatalf("case does not round-trip:\nfirst:\n%s\nsecond:\n%s", once, twice)
		}
	})
}

// TestParseCaseBoundsObjects: an object directive cannot make ParseCase
// allocate more memory than a reproducer could ever need — the shape the
// fuzzer would otherwise find by growing one number.
func TestParseCaseBoundsObjects(t *testing.T) {
	const body = "func f()\nentry:\n\tret\n"
	for _, obj := range []string{"a 0 1099511627776", "a 9223372036854775807 1", "a 1048575 2"} {
		if _, err := ParseCase("; object: " + obj + "\n" + body); err == nil {
			t.Errorf("object %q accepted", obj)
		}
	}
	c, err := ParseCase("; object: a 1048575 1\n" + body)
	if err != nil || len(c.Mem) != maxCaseWords {
		t.Errorf("object ending at the limit: err %v", err)
	}
}
