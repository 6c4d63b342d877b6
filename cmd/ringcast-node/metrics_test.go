package main

import (
	"io"
	"regexp"
	"testing"

	"ringcast/internal/node"
	"ringcast/internal/transport"
)

// TestMetricsRenderEveryDescribedFamily scrapes a pub/sub node's registry and
// requires at least one sample of every declared family, so no family can be
// described (and documented) without being exported.
func TestMetricsRenderEveryDescribedFamily(t *testing.T) {
	ep, err := transport.NewInMemNetwork().Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	cfg := node.DefaultConfig()
	cfg.Seed = 1
	store, err := buildStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := buildRuntime(cfg, ep, "alpha,beta", "", io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.close()
	scrape := buildRegistry(rt, store, cfg.Epoch).Render()
	for _, f := range families {
		if !regexp.MustCompile(`(?m)^` + f.name + `[{ ]`).MatchString(scrape) {
			t.Errorf("family %s is described but has no sample in the scrape:\n%s", f.name, scrape)
		}
	}
}
