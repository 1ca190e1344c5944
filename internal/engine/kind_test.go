package engine

import (
	"strings"
	"testing"
)

// TestParseKind pins the -engine flag values dcmon and dcvalidated
// accept: the empty string, trie and smt. Anything else, pec included,
// is an error that names the valid values.
func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"", KindDefault},
		{"trie", KindTrie},
		{"smt", KindSMT},
		{" SMT ", KindSMT},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, nil", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"pec", "bdd"} {
		_, err := ParseKind(in)
		if err == nil {
			t.Errorf("ParseKind(%q) accepted", in)
			continue
		}
		for _, valid := range []string{"trie", "smt"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParseKind(%q) error %q does not name %q", in, err, valid)
			}
		}
	}
}
