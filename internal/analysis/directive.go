package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The one directive comment:
//
//	//halint:allow <analyzer>[,<analyzer>] -- <justification>
//	    suppresses the named analyzers (or "all") on this line and the
//	    next; the justification after " -- " is mandatory.
const directivePrefix = "//halint:"

type directive struct {
	kind string // "allow"; anything else is reported as unknown
	args string // text after the kind, before any " -- " justification
	why  string // justification after " -- " (allow only)
	line int
	pos  token.Pos
	// used is set when the directive suppresses at least one finding
	// (or sanctions a type-level site); the stale-allow audit
	// reports allows that never fire, so suppressions rot loudly
	// instead of silently outliving the code they excused.
	used bool
}

// fileDirectives scans (and caches) a file's halint directives.
func (p *Package) fileDirectives(fset *token.FileSet, f *ast.File) []directive {
	if ds, ok := p.directives[f]; ok {
		return ds
	}
	var ds []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			body, why, _ := strings.Cut(text, " -- ")
			kind, args, _ := strings.Cut(strings.TrimSpace(body), " ")
			ds = append(ds, directive{
				kind: kind,
				args: strings.TrimSpace(args),
				why:  strings.TrimSpace(why),
				line: fset.Position(c.Pos()).Line,
				pos:  c.Pos(),
			})
		}
	}
	if p.directives == nil {
		p.directives = make(map[*ast.File][]directive)
	}
	p.directives[f] = ds
	return ds
}

// allowNames parses the comma-separated analyzer list of an allow
// directive.
func (d directive) allowNames() []string {
	parts := strings.Split(d.args, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func (d directive) allows(analyzer string) bool {
	if d.kind != "allow" {
		return false
	}
	for _, n := range d.allowNames() {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}

// allowedAt reports whether any allow directive for the analyzer sits
// on pos's line or the line directly above it, marking the directive
// used for the stale-allow audit.
func (prog *Program) allowedAt(pos token.Pos, analyzer string) bool {
	if !pos.IsValid() {
		return false
	}
	position := prog.Fset.Position(pos)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ff := prog.Fset.File(f.Pos())
			if ff == nil || ff.Name() != position.Filename {
				continue
			}
			ds := pkg.fileDirectives(prog.Fset, f)
			for i := range ds {
				if ds[i].allows(analyzer) && (ds[i].line == position.Line || ds[i].line == position.Line-1) {
					ds[i].used = true
					return true
				}
			}
		}
	}
	return false
}

// StaleAllowDiagnostics reports every allow directive that suppressed
// zero findings. Valid only after the full suite has run over the
// program (a subset run would see unexercised allows as stale);
// cmd/halint therefore skips it under -only.
func StaleAllowDiagnostics(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ds := pkg.fileDirectives(prog.Fset, f)
			for i := range ds {
				d := ds[i]
				if d.kind != "allow" || d.used || d.why == "" {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: "halint",
					Message: fmt.Sprintf(
						"stale //halint:allow %s: it suppresses no findings — delete the directive (or re-check what it was meant to excuse)",
						d.args),
				})
			}
		}
	}
	return diags
}

// DirectiveDiagnostics lints the directives themselves: an allow
// without a justification defeats the audit trail the escape hatch
// exists to keep, so it is a finding in its own right, and so is any
// directive other than allow.
func DirectiveDiagnostics(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range pkg.fileDirectives(prog.Fset, f) {
				switch {
				case d.kind != "allow":
					diags = append(diags, Diagnostic{
						Pos:      d.pos,
						Analyzer: "halint",
						Message:  "unknown halint directive " + directivePrefix + d.kind,
					})
				case d.why == "":
					diags = append(diags, Diagnostic{
						Pos:      d.pos,
						Analyzer: "halint",
						Message:  `allow directive needs a justification: //halint:allow <analyzer> -- <why>`,
					})
				}
			}
		}
	}
	return diags
}
