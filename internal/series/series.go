// Package series is the in-memory label index both warehouse stores are
// built on: log streams and TSDB series are nodes of one Index, generic
// over the payload each store keeps per node and the extras it accounts
// per tenant. The index owns striping, get-or-create under quotas,
// tenants, matcher selection, retention unlink and the checkpoint freeze;
// each store keeps its append path, its encoding and its query iterator.
//
// Nodes are spread over N lock stripes by fingerprint (fp mod N). Each
// stripe holds a fingerprint → collision-list map for lookup and an
// insertion-ordered slice for scans, so every scan — selection,
// checkpoint rows — comes out in stripe-then-insertion order.
//
// Lock order: stripe, then node. A stripe's RWMutex guards its map and
// slice; a node's mutex guards the store's payload. Nothing takes a
// stripe lock while holding a node lock.
//
// Reserve-then-rollback: a node's slot is reserved before the node is
// created — the store-wide count, then the tenant's, raised with atomic
// adds and checked against their caps — and a tripped cap rolls back
// every reservation made for that node, so concurrent creators in
// different stripes can never overshoot either cap.
//
// Admission: a label set that fails labels.Validate or carries the
// reserved tenant label is refused when its node would be created. The
// WAL persists a node's tenant as that label, so a stored copy of it
// would move the series into another tenant on replay. Lookups of
// existing nodes pay nothing for the check.
package series

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"shastamon/internal/labels"
	"shastamon/internal/tenant"
	"shastamon/internal/wal"
)

var (
	// ErrInvalidLabels refuses a label set no node may carry.
	ErrInvalidLabels = errors.New("invalid label set")
	// ErrReservedLabel refuses a label set carrying tenant.ReservedLabel.
	ErrReservedLabel = fmt.Errorf("%w: %s is a reserved label", ErrInvalidLabels, tenant.ReservedLabel)
)

// Node is one series: its identity plus the store's payload, held by
// value so a lookup returns a single pointer.
type Node[P, X any] struct {
	Labels     labels.Labels
	FP         labels.Fingerprint
	tenant     *Tenant[X]
	sync.Mutex // guards Data and walHeader
	walHeader  []byte
	Data       P
}

// Tenant returns the tenant owning the node.
func (n *Node[P, X]) Tenant() *Tenant[X] { return n.tenant }

// WALHeader returns the node's WAL record header (wal.AppendHeader),
// encoded once so durable writes don't re-encode labels per record. Call
// it under the node lock.
func (n *Node[P, X]) WALHeader(typ byte) []byte {
	if n.walHeader == nil {
		n.walHeader = wal.AppendHeader(nil, typ, n.tenant.ID, n.Labels)
	}
	return n.walHeader
}

// Tenant is one tenant's namespace: its live node count and the store's
// per-tenant extras.
type Tenant[X any] struct {
	ID   string
	live atomic.Int64
	Data X
}

// Live returns the tenant's live node count.
func (t *Tenant[X]) Live() int64 { return t.live.Load() }

type stripe[P, X any] struct {
	mu      sync.RWMutex
	byFP    map[labels.Fingerprint][]*Node[P, X]
	ordered []*Node[P, X]
}

// Index is a lock-striped, tenant-namespaced label index, safe for
// concurrent use.
type Index[P, X any] struct {
	stripes []*stripe[P, X]
	live    atomic.Int64
	max     int64
	errMax  error
	quota   func(id string) int64
	setup   func(*Tenant[X])
	zero    P

	def     *Tenant[X] // the default tenant, read without the map or its lock
	tmu     sync.RWMutex
	tenants map[string]*Tenant[X]
}

// New returns an empty index of n stripes. max caps live nodes
// store-wide and quota(id) a tenant's (0 = no cap); a tripped cap returns
// errMax, wrapped with the tenant for a quota. New nodes start with Data
// = zero; setup, if non-nil, fills in a tenant's extras when it first
// appears.
func New[P, X any](n, max int, errMax error, quota func(id string) int64, zero P, setup func(*Tenant[X])) *Index[P, X] {
	x := &Index[P, X]{stripes: make([]*stripe[P, X], n), max: int64(max), errMax: errMax,
		quota: quota, zero: zero, setup: setup, tenants: map[string]*Tenant[X]{}}
	for i := range x.stripes {
		x.stripes[i] = &stripe[P, X]{byFP: map[labels.Fingerprint][]*Node[P, X]{}}
	}
	x.def = x.Tenant(tenant.DefaultID) // def is still nil: Tenant creates it
	return x
}

// Stripes returns the number of lock stripes.
func (x *Index[P, X]) Stripes() int { return len(x.stripes) }

// Stripe returns the stripe a fingerprint lands in.
func (x *Index[P, X]) Stripe(fp labels.Fingerprint) int {
	return int(uint64(fp) % uint64(len(x.stripes)))
}

// Live returns the store-wide live node count.
func (x *Index[P, X]) Live() int64 { return x.live.Load() }

// Tenant returns (creating on first use) the tenant's state. The default
// tenant ("" or tenant.DefaultID) takes a direct field read.
func (x *Index[P, X]) Tenant(id string) *Tenant[X] {
	if t := x.Peek(id); t != nil {
		return t
	}
	x.tmu.Lock()
	defer x.tmu.Unlock()
	t := x.tenants[id]
	if t == nil {
		t = &Tenant[X]{ID: id}
		if x.setup != nil {
			x.setup(t)
		}
		x.tenants[id] = t
	}
	return t
}

// Peek is the read-path lookup: it never creates state, so a query for
// an unknown tenant cannot grow the tenant map; it returns nil instead.
func (x *Index[P, X]) Peek(id string) *Tenant[X] {
	if id == "" || id == tenant.DefaultID {
		return x.def
	}
	x.tmu.RLock()
	defer x.tmu.RUnlock()
	return x.tenants[id]
}

// Tenants returns every materialized tenant, sorted by ID.
func (x *Index[P, X]) Tenants() []*Tenant[X] {
	x.tmu.RLock()
	out := make([]*Tenant[X], 0, len(x.tenants))
	for _, t := range x.tenants {
		out = append(out, t)
	}
	x.tmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// GetOrCreate returns the tenant's node for ls and its stripe, creating
// the node if it does not exist. The hit path is one stripe read-lock,
// one map lookup and a collision-list compare, and allocates nothing; ls
// is copied only when a node is created.
func (x *Index[P, X]) GetOrCreate(t *Tenant[X], ls labels.Labels) (*Node[P, X], int, error) {
	fp := tenant.Fingerprint(t.ID, ls)
	i := x.Stripe(fp)
	s := x.stripes[i]
	s.mu.RLock()
	for _, n := range s.byFP[fp] {
		if n.tenant == t && n.Labels.Equal(ls) {
			s.mu.RUnlock()
			return n, i, nil
		}
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.byFP[fp] {
		if n.tenant == t && n.Labels.Equal(ls) {
			return n, i, nil
		}
	}
	if err := ls.Validate(); err != nil {
		return nil, i, fmt.Errorf("%w: %v", ErrInvalidLabels, err)
	}
	if ls.Has(tenant.ReservedLabel) {
		return nil, i, ErrReservedLabel
	}
	// Reserve a slot before creating: the adds are atomic across stripes,
	// so concurrent creators can never overshoot the store-wide cap or the
	// tenant's quota; a tripped quota rolls the store-wide reservation
	// back.
	if n := x.live.Add(1); x.max > 0 && n > x.max {
		x.live.Add(-1)
		return nil, i, x.errMax
	}
	if n, q := t.live.Add(1), x.quota(t.ID); q > 0 && n > q {
		t.live.Add(-1)
		x.live.Add(-1)
		return nil, i, fmt.Errorf("%w (tenant %s)", x.errMax, t.ID)
	}
	n := &Node[P, X]{Labels: ls.Copy(), FP: fp, tenant: t, Data: x.zero}
	s.byFP[fp] = append(s.byFP[fp], n)
	s.ordered = append(s.ordered, n)
	return n, i, nil
}

// Scan returns the nodes keep accepts, in stripe-then-insertion order.
// keep runs under the node's stripe read lock.
func (x *Index[P, X]) Scan(keep func(*Node[P, X]) bool) []*Node[P, X] {
	var out []*Node[P, X]
	for _, s := range x.stripes {
		s.mu.RLock()
		for _, n := range s.ordered {
			if keep(n) {
				out = append(out, n)
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// All returns every node, in stripe-then-insertion order.
func (x *Index[P, X]) All() []*Node[P, X] {
	return x.Scan(func(*Node[P, X]) bool { return true })
}

// Select returns the tenant's nodes matching every matcher, in
// stripe-then-insertion order; nil for a nil (unknown) tenant.
func (x *Index[P, X]) Select(t *Tenant[X], sel []*labels.Matcher) []*Node[P, X] {
	if t == nil {
		return nil
	}
	return x.Scan(func(n *Node[P, X]) bool { return n.tenant == t && labels.MatchLabels(n.Labels, sel) })
}

// Touched counts the stripes holding at least one of nodes, which must be
// in stripe order (as Select returns them, or any subsequence).
func (x *Index[P, X]) Touched(nodes []*Node[P, X]) int {
	touched, last := 0, -1
	for _, n := range nodes {
		if i := x.Stripe(n.FP); i != last {
			touched, last = touched+1, i
		}
	}
	return touched
}

// Series returns the label sets of the tenant's nodes matching sel,
// sorted by their rendered form.
func (x *Index[P, X]) Series(id string, sel []*labels.Matcher) []labels.Labels {
	var out []labels.Labels
	for _, n := range x.Select(x.Peek(id), sel) {
		out = append(out, n.Labels)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// LabelValues returns the sorted distinct non-empty values of a label
// across the tenant's nodes.
func (x *Index[P, X]) LabelValues(id, name string) []string {
	return x.distinct(id, func(ls labels.Labels, add func(string)) { add(ls.Get(name)) })
}

// LabelNames returns the sorted distinct label names across the tenant's
// nodes.
func (x *Index[P, X]) LabelNames(id string) []string {
	return x.distinct(id, func(ls labels.Labels, add func(string)) {
		for _, l := range ls {
			add(l.Name)
		}
	})
}

func (x *Index[P, X]) distinct(id string, each func(ls labels.Labels, add func(string))) []string {
	set := map[string]bool{}
	add := func(v string) {
		if v != "" {
			set[v] = true
		}
	}
	for _, n := range x.Select(x.Peek(id), nil) {
		each(n.Labels, add)
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Sweep is the unlink half of retention: stripe by stripe, under the
// stripe's write lock, it calls trim on every node with the node locked;
// nodes trim reports empty are unlinked and their slots released, both
// store-wide and in their tenant.
func (x *Index[P, X]) Sweep(trim func(n *Node[P, X]) (empty bool)) {
	for _, s := range x.stripes {
		s.mu.Lock()
		kept := s.ordered[:0]
		for _, n := range s.ordered {
			n.Lock()
			empty := trim(n)
			n.Unlock()
			if !empty {
				kept = append(kept, n)
				continue
			}
			list := s.byFP[n.FP]
			for i, other := range list {
				if other == n {
					list = append(list[:i], list[i+1:]...)
					break
				}
			}
			if s.byFP[n.FP] = list; len(list) == 0 {
				delete(s.byFP, n.FP)
			}
			x.live.Add(-1)
			n.tenant.live.Add(-1)
		}
		clear(s.ordered[len(kept):])
		s.ordered = kept
		s.mu.Unlock()
	}
}

// Freeze holds stripe i still for a checkpoint: it blocks node lookup
// and creation in the stripe (write lock) and drains every in-flight
// writer of its nodes (each node's mutex — stores write their WAL records
// under it), then calls cut, which rotates the stripe's WAL, then each on
// every node in insertion order, and releases. The snapshot each builds
// so covers exactly the records before the cut.
func (x *Index[P, X]) Freeze(i int, cut func() error, each func(*Node[P, X]) error) error {
	s := x.stripes[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.ordered {
		n.Lock()
	}
	defer func() {
		for _, n := range s.ordered {
			n.Unlock()
		}
	}()
	if err := cut(); err != nil {
		return err
	}
	for _, n := range s.ordered {
		if err := each(n); err != nil {
			return err
		}
	}
	return nil
}

// Row is a node's identity as a checkpoint row stores it.
type Row struct {
	Labels [][2]string `json:"labels"`
	Tenant string      `json:"tenant,omitempty"` // empty = default tenant
}

// Row returns the node's checkpoint identity.
func (n *Node[P, X]) Row() Row {
	var r Row
	if n.tenant.ID != tenant.DefaultID {
		r.Tenant = n.tenant.ID
	}
	for _, l := range n.Labels {
		r.Labels = append(r.Labels, [2]string{l.Name, l.Value})
	}
	return r
}

// Restore re-creates the node a checkpoint row names through
// GetOrCreate, so a row no write could have created fails with
// ErrInvalidLabels.
func (x *Index[P, X]) Restore(r Row) (*Node[P, X], int, error) {
	ls := make(labels.Labels, 0, len(r.Labels))
	for _, pair := range r.Labels {
		ls = append(ls, labels.Label{Name: pair[0], Value: pair[1]})
	}
	return x.GetOrCreate(x.Tenant(r.Tenant), labels.New(ls...))
}
