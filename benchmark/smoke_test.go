package main

import (
	"sort"
	"strings"
	"syscall"
	"testing"

	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/replica"
)

// inproc is a node inside the test process, standing in for a spawned
// sebdb-server so the smoke test needs no build and no child process.
type inproc struct {
	eng  *core.Engine
	node *node.FullNode
	foll *replica.Follower
	addr string
	dead bool
}

// launchInProc opens dataDir the way cmd/sebdb-server would for flags.
func launchInProc(dataDir, _ string, flags []string) (proc, error) {
	eng, err := core.Open(engineConfig(flags, dataDir))
	if err != nil {
		return nil, err
	}
	p := &inproc{eng: eng, node: node.New(eng)}
	for i, f := range flags {
		if f == "-auth" {
			table, col, _ := strings.Cut(flags[i+1], ".")
			if err := eng.CreateAuthIndex(table, col); err != nil {
				return nil, err
			}
		}
	}
	if p.addr, err = p.node.Serve("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i, f := range flags {
		if f == "-follow" {
			eng.SetFollower(true)
			p.foll = replica.StartFollower(eng, replica.FollowerConfig{Leader: flags[i+1]})
		}
	}
	return p, nil
}

func (p *inproc) Address() string { return p.addr }

func (p *inproc) Kill() {
	if p.dead {
		return
	}
	p.dead = true
	if p.foll != nil {
		p.foll.Stop()
	}
	p.node.Close() //sebdb:ignore-err test teardown
	p.eng.Close()  //sebdb:ignore-err test teardown
}

func (p *inproc) cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6, nil
}

func (p *inproc) rssMB() (float64, error) { return vmRSS("self") }

// smokeWorkload is w with a checkpoint every 10 blocks instead of every
// 100, so the writer's whole-interval phases fit in a second.
func smokeWorkload(w *Workload) *Workload {
	c := *w
	c.LeaderFlags = append([]string(nil), w.LeaderFlags...)
	for i, f := range c.LeaderFlags {
		if f == "-checkpoint-interval" {
			c.LeaderFlags[i+1] = "10"
		}
	}
	return &c
}

func smokeOptions(t *testing.T) RunOptions {
	return RunOptions{Seconds: 1, Size: SmokeSize, SetupRounds: 1, RestartRounds: 1,
		Launch: launchInProc, Scratch: t.TempDir()}
}

func declaredNames(list []MetricSpec) []string {
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func loadSpecForTest(t *testing.T) *Spec {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload BENCHMARK.json names runs, emits exactly the declared
// end-to-end metrics, none of them zero, and fails no request.
func TestSmokeEndToEnd(t *testing.T) {
	spec := loadSpecForTest(t)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the table has %d", len(spec.Workloads), len(Workloads))
	}
	want := declaredNames(spec.EndToEnd)
	for _, decl := range spec.Workloads {
		w := workloadByName(decl.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the table lacks", decl.Name)
		}
		res, err := runE2E(smokeWorkload(w), 5, smokeOptions(t))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got := sortedNames(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s emitted %v, BENCHMARK.json declares %v", w.Name, got, want)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s %s = %v; end-to-end metrics are never zero", w.Name, name, m.Value)
			}
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed: %v", w.Name, res.Failed, res.Attempted, res.Notes)
		}
	}
}

// One corrupted expected answer shows up as failed requests.
func TestWrongAnswerCountsAsFailure(t *testing.T) {
	o := smokeOptions(t)
	o.Tamper = func(pool []Stmt) { pool[0].Want.Digest++ }
	res, err := runE2E(workloadByName("hot_point"), 5, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatal("a wrong expected answer went unnoticed")
	}
	found := false
	for _, n := range res.Notes {
		found = found || strings.Contains(n, "wrong answer")
	}
	if !found {
		t.Fatalf("no note names the wrong answer: %v", res.Notes)
	}
}

// The traced run emits exactly the declared per-layer metrics on every
// workload, and its replay checks answers too. With -short it runs once,
// on the workload whose stream has SQL reads, verified reads and INSERTs.
func TestSmokeTraced(t *testing.T) {
	spec := loadSpecForTest(t)
	want := declaredNames(spec.PerLayer)
	run := Workloads
	if testing.Short() {
		run = []*Workload{workloadByName("follow_verified")}
	}
	for _, w := range run {
		res, err := runTraced(smokeWorkload(w), 5, 1, SmokeSize, t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got := sortedNames(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: emitted and declared per-layer names differ:\n got %v\nwant %v", w.Name, got, want)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d traced requests failed: %v", w.Name, res.Failed, res.Notes)
		}
	}
}
