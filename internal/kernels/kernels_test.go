package kernels_test

import (
	"testing"

	"denovosync/internal/alloc"
	"denovosync/internal/kernels"
	"denovosync/internal/machine"
)

func TestAllHas24(t *testing.T) {
	ks := kernels.All()
	if len(ks) != 24 {
		t.Fatalf("kernel count = %d, want 24", len(ks))
	}
	ids := map[string]bool{}
	for _, k := range ks {
		if ids[k.ID] {
			t.Fatalf("duplicate kernel ID %q", k.ID)
		}
		ids[k.ID] = true
	}
	for _, g := range []kernels.Group{kernels.LockTATAS, kernels.LockArray, kernels.NonBlocking, kernels.Barriers} {
		if n := len(kernels.ByGroup(g)); n != 6 {
			t.Fatalf("group %v has %d kernels, want 6", g, n)
		}
	}
}

func TestByID(t *testing.T) {
	k, ok := kernels.ByID("tatas-single-q")
	if !ok || k.Name != "single Q" {
		t.Fatalf("ByID lookup failed: %+v %v", k, ok)
	}
	if _, ok := kernels.ByID("nope"); ok {
		t.Fatal("bogus ID resolved")
	}
}

// TestEveryKernelRunsOnEveryProtocol is the big integration matrix:
// all 24 kernels x 3 protocols at 16 cores with reduced iteration counts.
func TestEveryKernelRunsOnEveryProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix test skipped in -short mode")
	}
	for _, k := range kernels.All() {
		for _, prot := range []machine.Protocol{machine.MESI, machine.DeNovoSync0, machine.DeNovoSync} {
			k, prot := k, prot
			t.Run(k.ID+"/"+prot.String(), func(t *testing.T) {
				t.Parallel()
				m := machine.New(machine.Params16(), prot, alloc.New())
				iters := 10
				if k.DefaultIters >= 1000 {
					iters = 100
				}
				rs, err := kernels.Run(k, m, kernels.Config{Cores: 16, Iters: iters})
				if err != nil {
					t.Fatalf("%s on %v: %v", k.ID, prot, err)
				}
				if rs.ExecTime == 0 {
					t.Fatalf("%s on %v: zero exec time", k.ID, prot)
				}
			})
		}
	}
}

// TestKernelDeterminism: one representative kernel per group is
// cycle-exact reproducible.
func TestKernelDeterminism(t *testing.T) {
	for _, id := range []string{"tatas-counter", "array-single-q", "nb-m-s-queue", "bar-central"} {
		k, ok := kernels.ByID(id)
		if !ok {
			t.Fatalf("missing kernel %s", id)
		}
		run := func() (uint64, uint64) {
			m := machine.New(machine.Params16(), machine.DeNovoSync, alloc.New())
			rs, err := kernels.Run(k, m, kernels.Config{Cores: 16, Iters: 8})
			if err != nil {
				t.Fatal(err)
			}
			return uint64(rs.ExecTime), rs.TotalTraffic
		}
		e1, t1 := run()
		e2, t2 := run()
		if e1 != e2 || t1 != t2 {
			t.Fatalf("%s nondeterministic: (%d,%d) vs (%d,%d)", id, e1, t1, e2, t2)
		}
	}
}

// TestCounterChecksFire: the built-in functional checks validate totals.
func TestCounterChecksFire(t *testing.T) {
	for _, id := range []string{"tatas-counter", "array-counter", "nb-fai-counter"} {
		k, _ := kernels.ByID(id)
		m := machine.New(machine.Params16(), machine.MESI, alloc.New())
		if _, err := kernels.Run(k, m, kernels.Config{Cores: 16, Iters: 5}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

// TestAblationConfigs: backoff, padding, and equality-check knobs run.
func TestAblationConfigs(t *testing.T) {
	k, _ := kernels.ByID("tatas-stack")
	m := machine.New(machine.Params16(), machine.DeNovoSync0, alloc.New())
	cfg := kernels.Config{Cores: 16, Iters: 5, NoPadding: true}
	cfg.LockBackoff.Min, cfg.LockBackoff.Max = 128, 2048
	if _, err := kernels.Run(k, m, cfg); err != nil {
		t.Fatal(err)
	}

	h, _ := kernels.ByID("nb-herlihy-stack")
	m2 := machine.New(machine.Params16(), machine.DeNovoSync, alloc.New())
	if _, err := kernels.Run(h, m2, kernels.Config{Cores: 16, Iters: 5, EqChecks: 0}); err != nil {
		t.Fatal(err)
	}
}

// TestKernels64Cores smoke-tests one kernel per group on the 8x8 machine
// (reduced iterations): the full 64-core runs live in cmd/paperbench.
func TestKernels64Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core kernels skipped in -short mode")
	}
	for _, id := range []string{"tatas-double-q", "array-counter", "nb-treiber-stack", "bar-n-ary"} {
		for _, prot := range []machine.Protocol{machine.MESI, machine.DeNovoSync} {
			id, prot := id, prot
			t.Run(id+"/"+prot.String(), func(t *testing.T) {
				t.Parallel()
				k, ok := kernels.ByID(id)
				if !ok {
					t.Fatalf("missing kernel %s", id)
				}
				m := machine.New(machine.Params64(), prot, alloc.New())
				if _, err := kernels.Run(k, m, kernels.Config{Cores: 64, Iters: 5}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestHerlihyStack64LaneOverflow: at 64 cores every Herlihy stack
// attempt carves a 257-word version from the thread's lane, and on MESI
// 16 iterations fill a 1 MiB lane chunk. The run must continue in
// overflow chunks and pass the kernel's functional check.
func TestHerlihyStack64LaneOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core kernels skipped in -short mode")
	}
	h, _ := kernels.ByID("nb-herlihy-stack")
	m := machine.New(machine.Params64(), machine.MESI, alloc.New())
	if _, err := kernels.Run(h, m, kernels.Config{Cores: 64, Iters: 16}); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureKernels: the lock kernels run with signature-based
// invalidation on a signature-enabled machine and stay functionally exact.
func TestSignatureKernels(t *testing.T) {
	p := machine.Params16()
	p.Signatures = true
	for _, id := range []string{"tatas-counter", "array-heap"} {
		k, _ := kernels.ByID(id)
		m := machine.New(p, machine.DeNovoSync, alloc.New())
		cfg := kernels.Config{Cores: 16, Iters: 8, UseSignatures: true}
		if _, err := kernels.Run(k, m, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

// TestInvalidateAllKernels: the invalidate-all fallback stays correct.
func TestInvalidateAllKernels(t *testing.T) {
	k, _ := kernels.ByID("tatas-counter")
	m := machine.New(machine.Params16(), machine.DeNovoSync0, alloc.New())
	if _, err := kernels.Run(k, m, kernels.Config{Cores: 16, Iters: 8, InvalidateAll: true}); err != nil {
		t.Fatal(err)
	}
}
