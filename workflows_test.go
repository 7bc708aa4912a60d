package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestWorkflowsNameRealTargets keeps .github/workflows honest. PR CI
// never executes nightly.yml, so deleting a command or renaming a test
// the nightly names would only show the night after — or, for a -run
// pattern that now matches nothing, never: `go test -run NoSuchTest`
// passes. Every ./cmd/… and ./internal/… path a workflow mentions must
// exist, and every alternative of a -run / -fuzz / -bench pattern must
// match a Test… / Fuzz… / Benchmark… function defined under the
// packages that `go test` command is run against.
func TestWorkflowsNameRealTargets(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflows found under .github/workflows (err %v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		yml := stripYAMLComments(string(raw))
		for _, p := range workflowPath.FindAllString(yml, -1) {
			dir := strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				t.Errorf("%s: %s is not a directory of this repository", file, p)
			}
		}
		for _, cmd := range workflowCommands(yml) {
			_, args, ok := strings.Cut(cmd, "go test ")
			if !ok {
				continue
			}
			var pkgs []string
			for _, f := range strings.Fields(args) {
				if f == "." || strings.HasPrefix(f, "./") {
					pkgs = append(pkgs, f)
				}
			}
			for _, m := range selectorFlag.FindAllStringSubmatch(args, -1) {
				kind := selectorKind[m[1]]
				pattern := strings.Trim(m[2], `'"`)
				pattern, _, _ = strings.Cut(pattern, "/") // subtest levels are not function names
				names := testFuncs(t, pkgs, kind)
				for _, alt := range topLevelAlternatives(pattern) {
					if alt == "^$" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: -%s %q: %v", file, m[1], alt, err)
						continue
					}
					if !slices.ContainsFunc(names, re.MatchString) {
						t.Errorf("%s: -%s %q matches no %s function under %v", file, m[1], alt, kind, pkgs)
					}
				}
			}
		}
	}
}

// selectorKind is the function prefix each go test selector flag picks.
var selectorKind = map[string]string{"run": "Test", "fuzz": "Fuzz", "bench": "Benchmark"}

var (
	workflowPath = regexp.MustCompile(`\./(?:cmd|internal)/[\w./-]*`)
	selectorFlag = regexp.MustCompile(`-(run|fuzz|bench)[= ]\s*('[^']*'|"[^"]*"|\S+)`)
	runKey       = regexp.MustCompile(`^(\s*)(?:- )?run:\s*(.*)$`)
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

func stripYAMLComments(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// workflowCommands returns the shell commands of every `run:` key: one
// per line of a literal (|) block, the folded text of a folded (>)
// block, each split at && so a `go test` owns only its own arguments.
func workflowCommands(yml string) []string {
	var cmds []string
	lines := strings.Split(yml, "\n")
	for i := 0; i < len(lines); i++ {
		m := runKey.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		body := []string{m[2]}
		if strings.HasPrefix(m[2], "|") || strings.HasPrefix(m[2], ">") {
			body = nil
			for i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" || len(lines[i+1])-len(strings.TrimLeft(lines[i+1], " ")) > len(m[1])) {
				i++
				body = append(body, strings.TrimSpace(lines[i]))
			}
			if strings.HasPrefix(m[2], ">") {
				body = []string{strings.Join(body, " ")}
			}
		}
		for _, line := range body {
			cmds = append(cmds, strings.Split(line, "&&")...)
		}
	}
	return cmds
}

// topLevelAlternatives splits a pattern at the | outside any group.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch {
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, pattern[start:i])
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}

// testFuncs lists the kind-prefixed functions of the _test.go files the
// package patterns cover: one directory, or a tree for a /... pattern
// (nested modules excluded, as `go test` excludes them).
func testFuncs(t *testing.T, pkgs []string, kind string) []string {
	var names []string
	scan := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(src), -1) {
			if strings.HasPrefix(m[1], kind) {
				names = append(names, m[1])
			}
		}
	}
	for _, pkg := range pkgs {
		dir, tree := strings.CutSuffix(pkg, "...")
		dir = filepath.Clean(dir)
		if !tree {
			files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			for _, f := range files {
				scan(f)
			}
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != dir {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
				scan(path)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", pkg, err)
		}
	}
	return names
}
