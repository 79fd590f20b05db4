// Command checkdocs is the docs gate of `make docs-check`: it fails
// when an intra-repo markdown link points at a file that does not
// exist, when README.md or docs/*.md cites a Test… name that no
// _test.go file defines, or when a Go package has no package doc
// comment. CI runs it on every push so the README and architecture docs
// cannot silently rot.
//
// Usage (from the repository root):
//
//	go run ./scripts/checkdocs
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links and images: [text](target).
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// testNameRe matches a Go test name cited in prose; testDefRe matches
// a test function's declaration in a _test.go file.
var (
	testNameRe = regexp.MustCompile(`\bTest[A-Z]\w*`)
	testDefRe  = regexp.MustCompile(`(?m)^func (Test[A-Z]\w*)\(`)
)

// skipDir reports directories that are never scanned: VCS state and
// any dot-directory (editor/agent state, local tool caches) — those
// hold untracked files, and linting them would make a local run
// diverge from CI's clean checkout.
func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") && name != "."
}

// walkFiles calls fn on every file whose name ends in suffix, walking
// the tree from the repository root past skipDir directories.
func walkFiles(suffix string, fn func(path string) error) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && skipDir(d.Name()):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(d.Name(), suffix):
			return nil
		}
		return fn(path)
	})
}

func main() {
	fails := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "checkdocs: "+format+"\n", args...)
		fails++
	}
	if err := checkMarkdownLinks(fail); err != nil {
		fail("%v", err)
	}
	if err := checkTestCitations(fail); err != nil {
		fail("%v", err)
	}
	if err := checkPackageDocs(fail); err != nil {
		fail("%v", err)
	}
	if fails > 0 {
		fmt.Fprintf(os.Stderr, "checkdocs: %d problem(s)\n", fails)
		os.Exit(1)
	}
	fmt.Println("checkdocs: markdown links, test citations and package docs OK")
}

// checkMarkdownLinks verifies that every relative link in every .md
// file resolves to an existing file or directory. External schemes
// (http, https, mailto) and pure #anchors are ignored.
func checkMarkdownLinks(fail func(string, ...any)) error {
	return walkFiles(".md", func(path string) error {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(blob), -1) {
			target := m[1]
			if u, err := url.Parse(target); err == nil && u.Scheme != "" {
				continue // external
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue // same-file anchor
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				fail("%s: broken link %q (%s does not exist)", path, m[1], resolved)
			}
		}
		return nil
	})
}

// checkTestCitations verifies that every Test… name README.md and
// docs/*.md cite is defined by some _test.go file in the repository.
// Only these current-state docs are scanned: the change log, the
// roadmap and benchmark/ record history and cite tests since removed.
func checkTestCitations(fail func(string, ...any)) error {
	defined := map[string]bool{}
	err := walkFiles("_test.go", func(path string) error {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDefRe.FindAllSubmatch(blob, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		return err
	}
	for _, path := range append([]string{"README.md"}, docs...) {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range testNameRe.FindAllString(string(blob), -1) {
			if !defined[name] {
				fail("%s: cites %s, which no _test.go defines", path, name)
			}
		}
	}
	return nil
}

// checkPackageDocs verifies that every directory holding Go source has
// a package doc comment on at least one non-test file.
func checkPackageDocs(fail func(string, ...any)) error {
	pkgs := map[string]bool{} // dir -> has a doc comment
	err := walkFiles(".go", func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		f, perr := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if perr != nil {
			return fmt.Errorf("parse %s: %w", path, perr)
		}
		pkgs[dir] = pkgs[dir] || f.Doc != nil
		return nil
	})
	if err != nil {
		return err
	}
	for dir, ok := range pkgs {
		if !ok {
			fail("package in %s has no package doc comment on any non-test file", dir)
		}
	}
	return nil
}
