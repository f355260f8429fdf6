package lint

import (
	"strings"
	"testing"
)

// TestConcEscapeSummaries pins the escape analysis against the real mat
// pool: the analyzers never hard-code the trySubmit → ParallelChunks
// chain, they derive it from which function-typed parameters reach
// goroutines, composite literals, or channel sends. If the pool plumbing is
// refactored these pins say whether the derivation kept up. The sharedstate
// fixture's forEachChunk pins one more hop: a helper that forwards its func
// parameter into a pool sink only inside a literal.
func TestConcEscapeSummaries(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	fixture := NewProgram([]*Package{parseFixture(t, fixturePath("sharedstate", "fixture.go"), "extdict/internal/mat")})
	pins := []struct {
		prog *Program
		id   string
		bit  uint
	}{
		{prog, "extdict/internal/mat.trySubmit", 0},
		{prog, "extdict/internal/mat.ParallelChunks", 2},
		{fixture, "extdict/internal/mat.submit", 0},
		{fixture, "extdict/internal/mat.forEachChunk", 1},
	}
	for _, pin := range pins {
		sum := pin.prog.summaries[pin.id]
		if sum == nil {
			t.Fatalf("no summary for %s", pin.id)
		}
		if sum.escParams&(1<<pin.bit) == 0 {
			t.Errorf("%s: parameter %d does not escape (escParams=%b); pool submissions would not count as launch sites",
				pin.id, pin.bit, sum.escParams)
		}
	}
}

// TestConcLockSummaries pins the lock identity and lockset propagation on
// the cluster communicator, whose every collective runs under (Comm).mu.
func TestConcLockSummaries(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	const id = "extdict/internal/cluster.(Comm).abort"
	const mu = "extdict/internal/cluster.(Comm).mu"
	sum := prog.summaries[id]
	if sum == nil {
		t.Fatalf("no summary for %s", id)
	}
	found := false
	for _, l := range sum.locks {
		found = found || l == mu
	}
	if !found {
		t.Errorf("%s: locks %v do not include %s", id, sum.locks, mu)
	}
	if len(sum.netLocks) != 0 {
		t.Errorf("%s: netLocks %v, want none (Lock and Unlock pair on every path)", id, sum.netLocks)
	}
}

// TestConcDetTaintSummaries pins the determinism taint: perf's Stopwatch
// is the module's clock-read surface, and the taint it seeds is what
// detorder's whole-program rule propagates into kernels.
func TestConcDetTaintSummaries(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	for id, want := range map[string]string{
		"extdict/internal/perf.StartWall":           "time.Now",
		"extdict/internal/perf.(Stopwatch).Elapsed": "time.Since",
	} {
		sum := prog.summaries[id]
		if sum == nil {
			t.Fatalf("no summary for %s", id)
		}
		if sum.detVia != want {
			t.Errorf("%s: detVia %q, want %q", id, sum.detVia, want)
		}
	}
}

// TestDetOrderWallSinkExemption pins the one sanctioned clock read:
// cluster.(Comm).Run stamps the observational Stats.Wall field and must
// not taint every solver that runs under a communicator.
func TestDetOrderWallSinkExemption(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	sum := prog.summaries[wallSinkExempt]
	if sum == nil {
		t.Fatalf("no summary for %s", wallSinkExempt)
	}
	if sum.detVia != "" {
		t.Errorf("%s: detVia %q, want empty — its Stats.Wall measurement is exempt", wallSinkExempt, sum.detVia)
	}
}

// TestDetOrderTransitiveClock runs the transitive fixture against the full
// module program: the clock read lives in internal/perf, which noclock
// allowlists, but a mat kernel calling StartWall/Elapsed is still flagged
// because the taint crosses package boundaries through the summaries.
func TestDetOrderTransitiveClock(t *testing.T) {
	_, pkgs := loadModuleProgram(t)
	fix := parseFixture(t, fixturePath("detorder", "transitive.go"), "extdict/internal/mat/fixture")
	prog := NewProgram(append(append([]*Package{}, pkgs...), fix))
	findings := RunProgram(prog, fix, []*Analyzer{DetOrder})
	var start, elapsed bool
	for _, f := range findings {
		if !strings.Contains(f.Message, "reaches a nondeterministic read") {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		start = start || strings.Contains(f.Message, "StartWall") && strings.Contains(f.Message, "time.Now")
		elapsed = elapsed || strings.Contains(f.Message, "Elapsed") && strings.Contains(f.Message, "time.Since")
	}
	if !start {
		t.Errorf("no finding for the transitive time.Now behind perf.StartWall; findings: %v", findings)
	}
	if !elapsed {
		t.Errorf("no finding for the transitive time.Since behind (Stopwatch).Elapsed; findings: %v", findings)
	}
}
