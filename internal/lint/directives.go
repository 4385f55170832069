package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"rmscale/internal/lint/analysis"
)

// A directive is rmslint's escape hatch: a //lint: comment that
// suppresses one analyzer on one line, with a mandatory reason so the
// justification lives next to the exception.
//
//	//lint:allow <analyzer> <reason>   suppress <analyzer> here
//	//lint:orderindependent <reason>   shorthand for allow mapiterorder
//	//lint:hotpath <reason>            mark a function as a hot root (hotalloc)
//
// A directive on its own line covers the next line; a trailing
// directive covers its own line. Either way, when the covered line
// starts a simple statement that spans several lines (a wrapped call,
// a multi-line literal), the suppression covers the whole statement
// span — block-bearing statements (if, for, func) are deliberately
// excluded so one directive can never blanket a body. A directive
// without a reason is itself a violation — an unexplained exception
// is exactly the kind of rot the suite exists to prevent.
type directive struct {
	analyzer string
	reason   string
	pos      token.Pos
}

// suppressions maps "analyzer\x00file:line" to the directive that
// covers it.
type suppressions map[string]*directive

func suppressionKey(analyzer, file string, line int) string {
	return fmt.Sprintf("%s\x00%s:%d", analyzer, file, line)
}

// parseDirectives scans the files' comments for //lint: markers.
// known names the valid analyzer identifiers; malformed or unknown
// directives come back as diagnostics under the pseudo-analyzer
// "lintdirective".
func parseDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) (suppressions, []analysis.Diagnostic) {
	sup := suppressions{}
	var bad []analysis.Diagnostic
	report := func(pos token.Pos, msg string) {
		bad = append(bad, analysis.Diagnostic{Pos: pos, Message: msg, Analyzer: "lintdirective"})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, rest, ok := cutDirective(c.Text)
				if !ok {
					continue
				}
				var d directive
				switch verb {
				case "allow":
					name, reason, _ := strings.Cut(rest, " ")
					d = directive{analyzer: name, reason: strings.TrimSpace(reason), pos: c.Pos()}
				case "orderindependent":
					d = directive{analyzer: "mapiterorder", reason: rest, pos: c.Pos()}
				case "hotpath":
					// Not a suppression: hotalloc reads the mark off the doc
					// comment. Only the mandatory reason is enforced here.
					if rest == "" {
						report(c.Pos(), "//lint: directive for hotpath needs a reason")
					}
					continue
				default:
					report(c.Pos(), "unknown //lint: directive "+verb+" (want allow, orderindependent or hotpath)")
					continue
				}
				if !known[d.analyzer] {
					report(c.Pos(), "//lint: directive names unknown analyzer "+d.analyzer)
					continue
				}
				if d.reason == "" {
					report(c.Pos(), "//lint: directive for "+d.analyzer+" needs a reason")
					continue
				}
				p := fset.Position(c.Pos())
				sup[suppressionKey(d.analyzer, p.Filename, p.Line)] = &d
				// A directive alone on its line covers the next line; either
				// anchor line extends over the full span of a multi-line
				// simple statement starting there.
				anchor := p.Line
				if standalone(fset, f, c) {
					anchor = p.Line + 1
					sup[suppressionKey(d.analyzer, p.Filename, anchor)] = &d
				}
				for l := anchor + 1; l <= statementSpan(fset, f, anchor); l++ {
					sup[suppressionKey(d.analyzer, p.Filename, l)] = &d
				}
			}
		}
	}
	return sup, bad
}

// cutDirective splits a //lint: comment into its verb and argument
// text; ok reports whether the comment is a lint directive at all.
func cutDirective(text string) (verb, rest string, ok bool) {
	t, ok := strings.CutPrefix(text, "//lint:")
	if !ok {
		return "", "", false
	}
	verb, rest, _ = strings.Cut(strings.TrimSpace(t), " ")
	return verb, strings.TrimSpace(rest), true
}

// statementSpan returns the last line of a multi-line simple
// statement (or spec/field) beginning on line, or line itself when
// none does. Block-bearing nodes are excluded on purpose: a directive
// anchored on an if/for/func line must not suppress the whole body.
func statementSpan(fset *token.FileSet, f *ast.File, line int) int {
	end := line
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeclStmt,
			*ast.GoStmt, *ast.DeferStmt, *ast.SendStmt, *ast.IncDecStmt,
			*ast.ValueSpec, *ast.Field:
		default:
			return true
		}
		if fset.Position(n.Pos()).Line != line {
			return true
		}
		// A statement carrying a func literal (go func(){...}(), a
		// stored closure) spans its body; extending the suppression
		// there would blanket every line of the literal.
		if containsFuncLit(n) {
			return true
		}
		if e := fset.Position(n.End()).Line; e > end {
			end = e
		}
		return true
	})
	return end
}

func containsFuncLit(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			found = true
		}
		return !found
	})
	return found
}

// standalone reports whether comment c is the only thing on its line.
func standalone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		// Any non-comment node whose span covers the comment's line
		// and starts on it means the comment trails code.
		if _, isFile := n.(*ast.File); isFile {
			return true
		}
		if fset.Position(n.Pos()).Line == line && n.Pos() < c.Pos() {
			found = true
			return false
		}
		return n.Pos() < c.Pos() // no need to descend past the comment
	})
	return !found
}

// suppressed reports whether d is covered by a directive, either at
// its own position or at its suppression anchor (the loop header for
// body diagnostics).
func (s suppressions) suppressed(fset *token.FileSet, d analysis.Diagnostic) bool {
	p := fset.Position(d.Pos)
	if _, ok := s[suppressionKey(d.Analyzer, p.Filename, p.Line)]; ok {
		return true
	}
	if d.SuppressPos != token.NoPos {
		a := fset.Position(d.SuppressPos)
		if _, ok := s[suppressionKey(d.Analyzer, a.Filename, a.Line)]; ok {
			return true
		}
	}
	return false
}
