package workload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/pdms"
	"repro/internal/relation"
)

// This file is the churn driver: machinery for subjecting a generated
// PDMS to scripted membership turbulence — peers crashing (reachable
// address goes dark), recovering, leaving (membership departure: the
// peer and its mappings disappear), and rejoining — while concurrent
// clients keep querying. The invariant it exists to check is the
// paper's availability story made precise: under churn, every query
// either succeeds (possibly degraded to last-good snapshots, and says
// so), or fails with a typed error — it never hangs and never returns
// a corrupted answer set — and once the network quiesces, answers are
// byte-identical to an all-local network over the same data.

// ChurnOp names one membership event kind.
type ChurnOp string

// The churn event kinds. Crash and Recover toggle reachability of a
// member peer (its node loses and regains power); Leave and Join are
// membership changes (the peer and every mapping touching it disappear
// from the coordinator, then come back).
const (
	OpCrash   ChurnOp = "crash"
	OpRecover ChurnOp = "recover"
	OpLeave   ChurnOp = "leave"
	OpJoin    ChurnOp = "join"
)

// ChurnEvent is one scripted membership event.
type ChurnEvent struct {
	Peer int
	Op   ChurnOp
}

// GenChurnScript draws a deterministic sequence of events valid
// against per-peer state (up peers crash or leave, crashed peers
// recover, departed peers rejoin). Peer 0 — the query anchor — is
// never churned. The same seed always yields the same script.
func GenChurnScript(seed int64, peers, events int) []ChurnEvent {
	if peers < 2 || events <= 0 {
		return nil
	}
	const (
		stUp = iota
		stCrashed
		stLeft
	)
	rnd := rand.New(rand.NewSource(seed))
	state := make([]int, peers)
	script := make([]ChurnEvent, 0, events)
	for len(script) < events {
		p := 1 + rnd.Intn(peers-1)
		var op ChurnOp
		switch state[p] {
		case stUp:
			if rnd.Intn(2) == 0 {
				op, state[p] = OpCrash, stCrashed
			} else {
				op, state[p] = OpLeave, stLeft
			}
		case stCrashed:
			op, state[p] = OpRecover, stUp
		case stLeft:
			op, state[p] = OpJoin, stUp
		}
		script = append(script, ChurnEvent{Peer: p, Op: op})
	}
	return script
}

// ChurnNetwork is a generated PDMS hosted for turbulence: peer 0 lives
// on the coordinator, every other peer is remote behind a
// fault-injecting transport, and the all-local twin of the same data
// serves as the differential oracle. Event methods (Crash, Recover,
// Leave, Join) and Query synchronize internally — clients may hammer
// Query from many goroutines while one driver goroutine applies
// events.
type ChurnNetwork struct {
	// Local is the all-local twin — the oracle quiesced answers must
	// match byte for byte.
	Local *GeneratedNetwork
	// Coord is the coordinator under test: peer 0 local, the rest
	// remote.
	Coord *pdms.Network
	// Faults is the decorator wrapping every remote peer's transport;
	// Crash and Recover drive its per-peer blackouts, and tests may
	// configure additional background fault noise through its Config.
	Faults *faults.Transport

	// Ship is the plan-shipping mode every Query issues its requests
	// with (pdms.ShipNever when unset — the historical mirror behavior).
	// Set it before turbulence starts; the ship-enabled churn variant
	// uses pdms.ShipAlways so every stale refresh crosses the shipped
	// sub-plan path under fault injection.
	Ship pdms.ShipMode

	donor *GeneratedNetwork
	spec  NetworkSpec

	mu      sync.RWMutex
	crashed map[int]bool
	left    map[int]bool
}

// NewChurnNetwork builds the harness: two identical generated networks
// (oracle and donor), the donor's peers 1..N-1 served over a Loopback
// wrapped in the given fault configuration, and a coordinator with
// peer 0 local plus every other peer remote. probe sets the
// coordinator's down-peer re-probe cadence (keep it a few
// milliseconds in tests so rejoin discovery is fast).
func NewChurnNetwork(spec NetworkSpec, fcfg faults.Config, probe time.Duration) (*ChurnNetwork, error) {
	local, err := GenNetwork(spec)
	if err != nil {
		return nil, err
	}
	donor, err := GenNetwork(spec) // same seed, identical data
	if err != nil {
		return nil, err
	}
	served := make([]*pdms.Peer, 0, spec.Peers-1)
	for i := 1; i < spec.Peers; i++ {
		served = append(served, donor.Net.Peer(PeerName(i)))
	}
	ft := faults.New(pdms.NewLoopback(served...), fcfg)
	coord := pdms.NewNetwork()
	coord.DownProbeInterval = probe
	if err := coord.AddPeer(donor.Net.Peer(PeerName(0))); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 1; i < spec.Peers; i++ {
		if err := admitPeer(ctx, coord, ft, i); err != nil {
			return nil, fmt.Errorf("workload: admitting %s: %w", PeerName(i), err)
		}
	}
	for _, e := range local.Edges {
		for _, dir := range [][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			m, err := local.BuildMapping(dir[0], dir[1])
			if err != nil {
				return nil, err
			}
			if err := coord.AddMapping(m); err != nil {
				return nil, err
			}
		}
	}
	return &ChurnNetwork{
		Local:   local,
		Coord:   coord,
		Faults:  ft,
		donor:   donor,
		spec:    spec,
		crashed: make(map[int]bool),
		left:    make(map[int]bool),
	}, nil
}

// admitPeer registers peer i as a remote on coord, retrying through
// injected fault noise: the fault schedule is live from the first
// frame, a failed AddRemotePeer leaves no partial state, and a real
// admission client would retry exactly like this. Deterministic
// failures (a genuinely blacked-out peer, a version mismatch) still
// surface.
func admitPeer(ctx context.Context, coord *pdms.Network, ft *faults.Transport, i int) error {
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// Bound each attempt: an injected hang only ends with its context.
		actx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
		_, err = coord.AddRemotePeer(actx, PeerName(i), ft)
		cancel()
		if err == nil {
			return nil
		}
	}
	return err
}

// Served returns peer i's serving-side Peer (the "remote node"), so
// tests can mutate data behind the coordinator's back. Valid for
// i >= 1.
func (c *ChurnNetwork) Served(i int) *pdms.Peer { return c.donor.Net.Peer(PeerName(i)) }

// Crash makes peer i unreachable (its node goes dark; membership and
// mappings stay).
func (c *ChurnNetwork) Crash(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed[i] = true
	c.Faults.Blackout(PeerName(i), true)
}

// Recover restores a crashed peer's reachability.
func (c *ChurnNetwork) Recover(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.crashed, i)
	c.Faults.Blackout(PeerName(i), false)
}

// Leave removes peer i from the coordinator: its mirror and every
// mapping touching it disappear, exactly the paper's "every member ...
// may join or leave at will".
func (c *ChurnNetwork) Leave(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left[i] = true
	return c.Coord.RemovePeer(PeerName(i))
}

// Join re-admits a departed peer: its mirror is re-fetched over the
// transport and the mappings to every edge-neighbor still present are
// re-registered (edges whose other endpoint is also away re-register
// when that endpoint rejoins).
func (c *ChurnNetwork) Join(ctx context.Context, i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := admitPeer(ctx, c.Coord, c.Faults, i); err != nil {
		return err
	}
	delete(c.left, i)
	for _, e := range c.Local.Edges {
		if e[0] != i && e[1] != i {
			continue
		}
		other := e[0] + e[1] - i
		if !slices.Contains(c.Coord.PeerNames(), PeerName(other)) {
			continue
		}
		for _, dir := range [][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			m, err := c.Local.BuildMapping(dir[0], dir[1])
			if err != nil {
				return err
			}
			if err := c.Coord.AddMapping(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// Apply executes one scripted event.
func (c *ChurnNetwork) Apply(ctx context.Context, ev ChurnEvent) error {
	switch ev.Op {
	case OpCrash:
		c.Crash(ev.Peer)
	case OpRecover:
		c.Recover(ev.Peer)
	case OpLeave:
		return c.Leave(ev.Peer)
	case OpJoin:
		return c.Join(ctx, ev.Peer)
	default:
		return fmt.Errorf("workload: unknown churn op %q", ev.Op)
	}
	return nil
}

// Query answers the all-titles query at peer 0 on the coordinator
// under the given policy, returning the materialized answers and the
// cursor (for Degraded/Retries inspection). It holds the harness read
// lock, so it may run from many goroutines concurrently with event
// application.
func (c *ChurnNetwork) Query(ctx context.Context, pol pdms.RetryPolicy, allowStale bool) (*relation.Relation, *pdms.Cursor, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cur, err := c.Coord.Query(ctx, pdms.Request{
		Peer:       PeerName(0),
		Query:      c.Local.TitleQuery(0),
		Retry:      pol,
		AllowStale: allowStale,
		Ship:       c.Ship,
	})
	if err != nil {
		return nil, nil, err
	}
	rows, err := cur.Materialize()
	if err != nil {
		return nil, cur, err
	}
	return rows, cur, nil
}

// Quiesce ends the turbulence: every blackout lifts, every departed
// peer rejoins, and the call blocks until a fresh-only query succeeds
// (resurrecting any peers still marked down) or ctx expires. After a
// nil return the coordinator is fully live and its answers must be
// byte-identical to the all-local oracle.
func (c *ChurnNetwork) Quiesce(ctx context.Context) error {
	c.mu.Lock()
	for i := range c.crashed {
		delete(c.crashed, i)
		c.Faults.Blackout(PeerName(i), false)
	}
	rejoin := make([]int, 0, len(c.left))
	for i := range c.left {
		rejoin = append(rejoin, i)
	}
	sort.Ints(rejoin)
	c.mu.Unlock()
	for _, i := range rejoin {
		if err := c.Join(ctx, i); err != nil {
			return fmt.Errorf("workload: quiesce rejoin of peer %d: %w", i, err)
		}
	}
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("workload: quiesce timed out: %w (last query error: %v)", err, lastErr)
		}
		// Fresh-only, no stale tolerance: success means every remote peer
		// answered its probe.
		if _, _, lastErr = c.Query(ctx, pdms.DefaultRetryPolicy(), false); lastErr == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// OracleDigest returns the all-local twin's canonical answer digest
// for the all-titles query at peer 0.
func (c *ChurnNetwork) OracleDigest() (string, error) {
	res, err := c.Local.Net.Answer(PeerName(0), c.Local.TitleQuery(0), pdms.ReformOptions{})
	if err != nil {
		return "", err
	}
	return AnswerDigest(res.Answers), nil
}

// AnswerDigest renders a relation's canonical content digest: the
// sorted rows in their wire encoding, hashed. Two answer sets are
// byte-identical iff their digests match — the equality the churn
// differential check and the distributed acceptance tests rely on.
func AnswerDigest(r *relation.Relation) string {
	rows := append([]relation.Tuple(nil), r.Rows()...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Less(rows[j]) })
	sum := sha256.Sum256(relation.EncodeTupleBatch(rows))
	return hex.EncodeToString(sum[:8])
}
