package repro

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// servingPackages are the packages a running node is made of; seedPackages
// are the original reproduction's application layer (MANGROVE, the corpus
// advisors, the matchers and their helpers), which the experiments and
// examples drive but no serving path may depend on.
var (
	servingPackages = []string{"relation", "cq", "glav", "view", "pdms", "store", "transport", "faults"}
	seedPackages    = []string{"advisor", "apps", "corpus", "htmlx", "learn", "mangrove", "match", "rdf", "stats", "strutil", "webgen", "xmlq"}
)

// TestServingPackagesDoNotImportSeed walks each serving package's
// non-test imports transitively (within this module) and fails on any
// path into a seed package.
func TestServingPackagesDoNotImportSeed(t *testing.T) {
	const prefix = "repro/internal/"
	seed := make(map[string]bool, len(seedPackages))
	for _, p := range seedPackages {
		seed[p] = true
	}
	for _, root := range servingPackages {
		via := map[string]string{root: ""}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			pkg, err := build.ImportDir(filepath.Join("internal", queue[0]), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range pkg.Imports {
				name, ok := strings.CutPrefix(imp, prefix)
				if _, visited := via[name]; !ok || visited {
					continue
				}
				via[name] = queue[0]
				if seed[name] {
					chain := name
					for at := queue[0]; at != ""; at = via[at] {
						chain = at + " → " + chain
					}
					t.Errorf("serving package %s reaches seed package %s: %s", root, name, chain)
					continue
				}
				queue = append(queue, name)
			}
		}
	}
}
