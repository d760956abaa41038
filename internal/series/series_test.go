package series

import (
	"errors"
	"testing"

	"shastamon/internal/labels"
	"shastamon/internal/tenant"
)

var errTest = errors.New("cap")

func newTestIndex(stripes, max int, quota int64) *Index[int, struct{}] {
	return New[int, struct{}](stripes, max, errTest, func(string) int64 { return quota }, 7, nil)
}

// TestCollisionList forces two label sets onto one fingerprint — real
// 64-bit FNV collisions are not at hand, so the first node is re-keyed
// under the second set's fingerprint — and checks that lookup, creation,
// selection and retention keep them apart.
func TestCollisionList(t *testing.T) {
	x := newTestIndex(1, 0, 0)
	def := x.Tenant(tenant.DefaultID)
	lsA, lsB := labels.FromStrings("a", "1"), labels.FromStrings("a", "2")
	a, _, err := x.GetOrCreate(def, lsA)
	if err != nil {
		t.Fatal(err)
	}
	s := x.stripes[0]
	fp := tenant.Fingerprint(def.ID, lsB)
	delete(s.byFP, a.FP)
	a.FP = fp
	s.byFP[fp] = []*Node[int, struct{}]{a}

	b, _, err := x.GetOrCreate(def, lsB)
	if err != nil || b == a || !b.Labels.Equal(lsB) || b.Data != 7 {
		t.Fatalf("create behind a colliding node = %p %v %v (a = %p)", b, b.Labels, err, a)
	}
	if got := len(s.byFP[fp]); got != 2 || x.Live() != 2 || def.Live() != 2 {
		t.Fatalf("collision list %d nodes, live %d / tenant %d; want 2, 2, 2", got, x.Live(), def.Live())
	}
	var hit *Node[int, struct{}]
	if allocs := testing.AllocsPerRun(100, func() { hit, _, _ = x.GetOrCreate(def, lsB) }); hit != b || allocs != 0 {
		t.Fatalf("hit behind a colliding node = %p (want %p), %.1f allocs", hit, b, allocs)
	}
	if got := x.Series(def.ID, nil); len(got) != 2 {
		t.Fatalf("series = %v", got)
	}

	x.Sweep(func(n *Node[int, struct{}]) bool { return n == a })
	if got := s.byFP[fp]; len(got) != 1 || got[0] != b || x.Live() != 1 || def.Live() != 1 {
		t.Fatalf("after unlinking a: list %v, live %d / tenant %d", got, x.Live(), def.Live())
	}
	if hit, _, _ := x.GetOrCreate(def, lsB); hit != b {
		t.Fatalf("lookup after unlink = %p, want %p", hit, b)
	}
	x.Sweep(func(*Node[int, struct{}]) bool { return true })
	if len(s.byFP) != 0 || len(s.ordered) != 0 || x.Live() != 0 || def.Live() != 0 {
		t.Fatalf("after unlinking all: %d fps, %d nodes, live %d / tenant %d", len(s.byFP), len(s.ordered), x.Live(), def.Live())
	}
}

// TestTenantQuotaRollback: a tripped cap or quota — or a refused label set —
// leaves both counts where they were.
func TestTenantQuotaRollback(t *testing.T) {
	x := newTestIndex(4, 3, 2)
	a, b := x.Tenant("a"), x.Tenant("b")
	for i, tc := range []struct {
		t       *Tenant[struct{}]
		ls      labels.Labels
		wantErr error
	}{
		{a, labels.FromStrings("i", "1"), nil},
		{a, labels.FromStrings("i", "2"), nil},
		{a, labels.FromStrings("i", "3"), errTest}, // tenant quota
		{a, labels.FromStrings("i", "1", tenant.ReservedLabel, "b"), ErrReservedLabel},
		{a, labels.Labels{{Name: "", Value: "x"}}, ErrInvalidLabels},
		{b, labels.FromStrings("i", "1"), nil},
		{b, labels.FromStrings("i", "2"), errTest}, // store cap
	} {
		if _, _, err := x.GetOrCreate(tc.t, tc.ls); !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
			t.Fatalf("#%d %s %v: err %v, want %v", i, tc.t.ID, tc.ls, err, tc.wantErr)
		}
	}
	if x.Live() != 3 || a.Live() != 2 || b.Live() != 1 {
		t.Fatalf("live %d, a %d, b %d; want 3, 2, 1", x.Live(), a.Live(), b.Live())
	}
	if x.Peek("nobody") != nil || len(x.Tenants()) != 3 {
		t.Fatalf("peek created state: %d tenants", len(x.Tenants()))
	}
}
