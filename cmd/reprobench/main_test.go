package main

import "testing"

// Smoke tests: every experiment must run end to end on a tiny
// configuration without panicking. (Output goes to stdout; `go test`
// captures it.)

func tinyConfig() config {
	return config{n: 1 << 12, seed: 1, sf: 0.001, quick: true}
}

func TestExperimentsSmoke(t *testing.T) {
	cfg := tinyConfig()
	experiments := map[string]func(config){
		"fig4":  runFig4,
		"fig8":  runFig8,
		"fig9":  runFig9,
		"fig11": runFig11,
		"fig12": runFig12,
		"q6":    runQ6,
		"dist":  runDist,
	}
	for name, fn := range experiments {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", name, r)
				}
			}()
			fn(cfg)
		})
	}
}

func TestSweepExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	for name, fn := range map[string]func(config){
		"tab2":     runTab2,
		"fig6":     runFig6,
		"fig7":     runFig7,
		"fig10":    runFig10,
		"tab4":     runTab4,
		"pagerank": runPageRank,
	} {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", name, r)
				}
			}()
			fn(cfg)
		})
	}
}

func TestGroupSweepQuickMode(t *testing.T) {
	cfg := tinyConfig()
	s := groupSweep(cfg, 0, 24)
	if len(s) == 0 || len(s) > 6 {
		t.Errorf("quick sweep has %d points", len(s))
	}
	for _, g := range s {
		if g > cfg.n {
			t.Errorf("sweep point %d exceeds n", g)
		}
	}
}

func TestMakeDatasets(t *testing.T) {
	d := makeDatasets(1, 1000, 50)
	if len(d.keys) != 1000 || len(d.f64) != 1000 || len(d.f32) != 1000 ||
		len(d.i32) != 1000 || len(d.i64) != 1000 {
		t.Fatal("dataset lengths wrong")
	}
	for i := range d.f64 {
		if float64(d.f32[i]) < 1 || float64(d.f32[i]) >= 2.01 {
			t.Fatal("f32 derivation wrong")
		}
		if d.i64[i] != int64(d.f64[i]*1e4) {
			t.Fatal("i64 derivation wrong")
		}
	}
}
