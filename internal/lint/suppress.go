package lint

import "strings"

// directiveSet indexes //lint:ignore directives by file and line. A directive
// suppresses matching findings on its own line and on the line directly
// below it, so it works both as a trailing comment and as a lead-in line.
type directiveSet map[string]map[int][]string // filename -> line -> checks

func (d directiveSet) add(filename string, line int, check string) {
	byLine := d[filename]
	if byLine == nil {
		byLine = make(map[int][]string)
		d[filename] = byLine
	}
	byLine[line] = append(byLine[line], check)
}

func (d directiveSet) suppresses(f Finding) bool {
	byLine := d[f.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		for _, check := range byLine[line] {
			if check == f.Check {
				return true
			}
		}
	}
	return false
}

const ignorePrefix = "//lint:ignore"

// collectDirectives scans every comment in the package for ignore
// directives. One directive may name several checks separated by commas
// (//lint:ignore hotalloc,flopaudit reason); the reason covers all of them.
// Malformed directives — no check name, or no reason — are returned as
// findings so that suppression always carries a justification.
func collectDirectives(pkg *Package) (directiveSet, []Finding) {
	dirs := make(directiveSet)
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Check: "directive",
						Pos:   pos,
						Message: "malformed ignore directive: want " +
							"//lint:ignore <check> <reason>, with a non-empty reason",
					})
					continue
				}
				for _, check := range strings.Split(fields[0], ",") {
					if check != "" {
						dirs.add(pos.Filename, pos.Line, check)
					}
				}
			}
		}
	}
	return dirs, bad
}
