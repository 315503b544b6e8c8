package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// newSharded builds an engine with n chip shards beside the sys shard.
func newSharded(n, workers int, lookahead Time) *Engine {
	e := NewEngine()
	e.AddShards(n)
	e.SetLookahead(lookahead)
	e.SetWorkers(workers)
	return e
}

func TestSetWorkersClamps(t *testing.T) {
	e := newSharded(2, 1, 0)
	e.SetWorkers(0)
	if e.Workers() != 1 {
		t.Fatalf("SetWorkers(0) = %d, want clamp to 1", e.Workers())
	}
	e.SetWorkers(99)
	if e.Workers() != 3 {
		t.Fatalf("SetWorkers(99) on 3 shards = %d, want clamp to 3", e.Workers())
	}
}

func TestAddShardsRefusesLiveEngine(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AddShards after scheduling should panic")
		}
	}()
	e.AddShards(1)
}

// TestSendTaggedArbitrationOrder pins the fixed-priority-arbiter
// semantics of the tag: cross-shard posts landing on one shard at the
// same virtual time execute untagged-first, then in ascending tag
// order, regardless of which shard sent them first and of the worker
// count.
func TestSendTaggedArbitrationOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := newSharded(3, workers, 0)
		sys := e.Sys()
		var order []string
		arrive := func(label string) func() {
			return func() { order = append(order, label) }
		}
		// Each chip shard fires at t=5 and posts to sys for t=10. Tags
		// are deliberately anti-correlated with shard ids, and one post
		// is untagged: the untagged one must win, then tag order.
		e.Shard(1).At(5, func() { e.Shard(1).SendTagged(sys, 10, 2, arrive("tag2")) })
		e.Shard(2).At(5, func() { e.Shard(2).SendTagged(sys, 10, 0, arrive("tag0")) })
		e.Shard(3).At(5, func() { e.Shard(3).SendTagged(sys, 10, 1, arrive("tag1")) })
		e.Shard(3).At(5, func() { e.Shard(3).Send(sys, 10, arrive("untagged")) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"untagged", "tag0", "tag1", "tag2"}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("workers=%d: arrival order %v, want %v", workers, order, want)
		}
	}
}

// TestBookingOrderAcrossWorkers pins the booking floor: an event that
// books mesh-link occupancy on a chip shard must not run ahead of a
// lower-keyed cross-chip walk another chip has yet to hand to sys, even
// when the lookahead lift would otherwise admit it. Chip 2 issues a
// cross walk at t=50 (executed on sys); chip 1 books locally at t=100,
// well inside chip 2's lifted window (lookahead 1000). Canonical order
// is walk first, and it must hold for every worker count, on both the
// proc-context (AwaitBookingWindow) and callback-context (AtBooking)
// paths.
func TestBookingOrderAcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, viaCallback := range []bool{false, true} {
			e := newSharded(2, workers, 1000)
			sys := e.Sys()
			var order []string
			e.Shard(2).At(50, func() {
				e.Shard(2).SendTagged(sys, 50, 7, func() { order = append(order, "walk@50") })
			})
			book := func() { order = append(order, "local@100") }
			if viaCallback {
				e.Shard(1).AtBooking(100, book)
			} else {
				e.Shard(1).SpawnAt(100, "booker", func(p *Proc) {
					p.Shard().AwaitBookingWindow()
					book()
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			want := []string{"walk@50", "local@100"}
			if !reflect.DeepEqual(order, want) {
				t.Fatalf("workers=%d viaCallback=%v: order %v, want %v",
					workers, viaCallback, order, want)
			}
		}
	}
}

// TestSpawnOnRunsOnTargetShard checks that a proc spawned cross-shard
// executes in the target shard's context and joins its proc set.
func TestSpawnOnRunsOnTargetShard(t *testing.T) {
	e := newSharded(2, 1, 0)
	var ran int32 = -1
	e.At(0, func() {
		e.Sys().SpawnOn(e.Shard(2), 7, "kernel", func(p *Proc) {
			ran = p.Shard().id
			p.Wait(3)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("SpawnOn proc ran on shard %d, want 2", ran)
	}
}

// TestDeadlockNamesProcsAndShardMarks pins the multi-shard deadlock
// diagnostics: the error names every blocked proc with the condition it
// waits on, and reports each shard's low-water mark.
func TestDeadlockNamesProcsAndShardMarks(t *testing.T) {
	e := newSharded(2, 1, 0)
	stuck := NewCondOn(e.Shard(1), "never-signaled")
	e.Shard(1).Spawn("victim", func(p *Proc) {
		p.Wait(42 * Nanosecond)
		p.WaitCond(stuck)
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want deadlock error")
	}
	for _, frag := range []string{"victim@never-signaled", "low-water marks", "sys@t=", "chip0@t=42ns"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("deadlock error %q missing %q", err, frag)
		}
	}
}

// fuzzEvent builds one event of the random cross-shard workload: it
// logs its execution on its shard's private log, then derives 1-2
// children from its own seed (never from shared state, so the event
// population is independent of execution order) and posts them at
// random targets, times and tags.
func fuzzEvent(e *Engine, logs [][]string, sh *Shard, seed uint64, depth int) func() {
	return func() {
		id := sh.ID()
		logs[id] = append(logs[id], fmt.Sprintf("t=%d seed=%x", sh.Now(), seed))
		if depth == 0 {
			return
		}
		r := NewRand(seed)
		for i := 0; i < 1+r.Intn(2); i++ {
			target := e.Shard(r.Intn(e.NumShards()))
			delay := Time(r.Intn(50))
			if id != 0 && target.ID() != 0 && target != sh {
				// Chip-to-chip interactions honor the lookahead
				// contract, like the eLink they model.
				delay += e.Lookahead()
			}
			child := seed*0x9E3779B97F4A7C15 + uint64(i) + 1
			next := fuzzEvent(e, logs, target, child, depth-1)
			switch {
			case target == sh:
				sh.At(sh.Now()+delay, next)
			case r.Intn(2) == 0:
				sh.SendTagged(target, sh.Now()+delay, r.Intn(8), next)
			default:
				sh.Send(target, sh.Now()+delay, next)
			}
		}
	}
}

// runFuzz executes the seeded random workload and returns the per-shard
// execution logs.
func runFuzz(t *testing.T, chips, workers int, lookahead Time, seed uint64, depth int) [][]string {
	t.Helper()
	e := newSharded(chips, workers, lookahead)
	logs := make([][]string, e.NumShards())
	for i := 0; i < e.NumShards(); i++ {
		sh := e.Shard(i)
		sh.At(Time(i), fuzzEvent(e, logs, sh, seed+uint64(i), depth))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return logs
}

// TestInterShardOrderFuzz is the ordering fuzz test for the inter-shard
// inbox: seeded random workloads posting cross-shard events (tagged and
// untagged, with and without lookahead) must execute in exactly the
// same per-shard order and at the same virtual times under the
// sequential merge (workers=1) and the parallel barrier-window
// scheduler at several worker counts. Run it with -race to also check
// the scheduler's memory discipline.
func TestInterShardOrderFuzz(t *testing.T) {
	for _, lookahead := range []Time{0, 40} {
		for seed := uint64(1); seed <= 5; seed++ {
			base := runFuzz(t, 4, 1, lookahead, seed, 6)
			events := 0
			for _, l := range base {
				events += len(l)
			}
			if events < 50 {
				t.Fatalf("seed %d generated only %d events; fuzz workload degenerate", seed, events)
			}
			for _, workers := range []int{2, 5} {
				got := runFuzz(t, 4, workers, lookahead, seed, 6)
				if !reflect.DeepEqual(got, base) {
					t.Errorf("lookahead=%v seed=%d: workers=%d diverged from the sequential schedule", lookahead, seed, workers)
				}
			}
		}
	}
}
