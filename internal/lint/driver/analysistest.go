package driver

import (
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe introduces an expectation comment: `// want "re"` or
// `// want `+"`re`"+` — with several quoted or backquoted regexps allowed
// after one want, mirroring x/tools analysistest.
var wantRe = regexp.MustCompile(`//\s*want\s+(.+)`)

// parseWantPatterns tokenizes the tail of a want comment into its regexp
// sources.
func parseWantPatterns(tail string) []string {
	var out []string
	for {
		tail = strings.TrimSpace(tail)
		if len(tail) == 0 {
			return out
		}
		switch tail[0] {
		case '`':
			end := strings.IndexByte(tail[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, tail[1:1+end])
			tail = tail[end+2:]
		case '"':
			// Only \" is an escape; other backslashes pass through so
			// regexp escapes like \. survive.
			var buf strings.Builder
			i := 1
			for ; i < len(tail) && tail[i] != '"'; i++ {
				if tail[i] == '\\' && i+1 < len(tail) && tail[i+1] == '"' {
					i++
				}
				buf.WriteByte(tail[i])
			}
			if i == len(tail) {
				return out
			}
			out = append(out, buf.String())
			tail = tail[i+1:]
		default:
			return out
		}
	}
}

// AnalysisTest loads the fixture package rooted at dir (conventionally
// internal/lint/testdata/src/<path>), runs the analyzer over it and
// compares the diagnostics against the `// want "re"` comments in the
// fixture sources: every want must be matched by a diagnostic on its line,
// and every diagnostic must have a want.
func AnalysisTest(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := Run([]*Analyzer{a}, []*Package{pkg})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				exprs := parseWantPatterns(m[1])
				if len(exprs) == 0 {
					t.Fatalf("%s: want comment with no pattern: %s", pos, c.Text)
				}
				for _, expr := range exprs {
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	matched := map[key][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		found := false
		for i, re := range wants[k] {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, ok := range matched[k] {
			if !ok {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, wants[k][i])
			}
		}
	}
}
