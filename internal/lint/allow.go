package lint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path"
	"strconv"
	"strings"
)

// AllowRule is one audited exception. Rules come from lint.allow, one
// per line:
//
//	<analyzer|*> <path-glob>[:<line>] [message substring]
//
// The path is slash-separated and relative to the module root. The
// glob uses path.Match semantics per segment, a trailing "/..." allows
// a whole subtree, and an optional ":<line>" pins the rule to a line
// (omit it to survive unrelated edits to the file). Blank lines and
// #-comments are ignored.
//
// Every rule must carry a justification: a #-comment on the line(s)
// directly above it. The comment covers every rule until the next
// blank line, so one comment can justify a small group. Rules with no
// adjacent comment are reported by Unjustified and fail the lint gate
// — an exception nobody can explain is a bug waiting to be grandfathered.
type AllowRule struct {
	Analyzer  string // analyzer name or "*"
	Path      string // glob, or prefix ending in "/..."
	Line      int    // 0 = any line
	Substr    string // "" = any message
	Source    string // file:line of the rule, for stale-rule reports
	Justified bool   // a #-comment directly precedes this rule's block
}

// Allowlist is a parsed lint.allow file.
type Allowlist struct {
	Rules []AllowRule
	used  []bool
}

// ParseAllowFile reads an allowlist. A missing file yields an empty
// (allow-nothing) list and no error, so the default path can be probed
// unconditionally.
func ParseAllowFile(file string) (*Allowlist, error) {
	f, err := os.Open(file)
	if os.IsNotExist(err) {
		return &Allowlist{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseAllow(f, file)
}

// ParseAllow parses allowlist rules from r; name is used in rule
// source positions and error messages.
func ParseAllow(r io.Reader, name string) (*Allowlist, error) {
	al := &Allowlist{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	justified := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			justified = false
			continue
		}
		if strings.HasPrefix(line, "#") {
			justified = true
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want \"<analyzer|*> <path-glob>[:<line>] [substring]\", got %q", name, lineNo, line)
		}
		rule := AllowRule{
			Analyzer:  fields[0],
			Path:      fields[1],
			Substr:    strings.Join(fields[2:], " "),
			Source:    fmt.Sprintf("%s:%d", name, lineNo),
			Justified: justified,
		}
		if rule.Analyzer != "*" && ByName(rule.Analyzer) == nil {
			return nil, fmt.Errorf("%s:%d: unknown analyzer %q", name, lineNo, rule.Analyzer)
		}
		if i := strings.Index(rule.Path, ":"); i >= 0 {
			n, err := strconv.Atoi(rule.Path[i+1:])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%s:%d: bad line number in %q", name, lineNo, rule.Path)
			}
			rule.Line = n
			rule.Path = rule.Path[:i]
		}
		al.Rules = append(al.Rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	al.used = make([]bool, len(al.Rules))
	return al, nil
}

// Allows reports whether some rule covers the diagnostic (whose
// Pos.Filename must be slash-separated and module-relative), marking
// the rule used.
func (al *Allowlist) Allows(d Diagnostic) bool {
	for i, r := range al.Rules {
		if r.Analyzer != "*" && r.Analyzer != d.Analyzer {
			continue
		}
		if !pathGlobMatch(r.Path, d.Pos.Filename) {
			continue
		}
		if r.Line != 0 && r.Line != d.Pos.Line {
			continue
		}
		if r.Substr != "" && !strings.Contains(d.Message, r.Substr) {
			continue
		}
		al.used[i] = true
		return true
	}
	return false
}

// Unjustified returns the rules with no #-comment directly above their
// block — exceptions nobody wrote down a reason for.
func (al *Allowlist) Unjustified() []AllowRule {
	var out []AllowRule
	for _, r := range al.Rules {
		if !r.Justified {
			out = append(out, r)
		}
	}
	return out
}

// Unused returns the rules that never matched a diagnostic — stale
// exceptions that should be deleted.
func (al *Allowlist) Unused() []AllowRule {
	var out []AllowRule
	for i, r := range al.Rules {
		if !al.used[i] {
			out = append(out, r)
		}
	}
	return out
}

// pathGlobMatch matches a slash-separated path against a glob. An
// exact match, a path.Match match, or a "dir/..." subtree prefix all
// count.
func pathGlobMatch(glob, p string) bool {
	if glob == p {
		return true
	}
	if prefix, ok := strings.CutSuffix(glob, "/..."); ok {
		return p == prefix || strings.HasPrefix(p, prefix+"/")
	}
	ok, err := path.Match(glob, p)
	return err == nil && ok
}
