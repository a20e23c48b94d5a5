package onion

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// inboxSize bounds each node's cell queue. Links apply backpressure when a
// queue fills (blocking send), like TCP would.
const inboxSize = 256

// node is anything attached to the network fabric that can receive cells.
type node interface {
	// ID returns the node's unique identifier.
	ID() string
	// deliver enqueues a cell for the node; it blocks when the node's
	// inbox is full and drops the cell when the node has stopped.
	deliver(c Cell)
}

// Network is the in-process onion-routing fabric: a roster of relays, a
// directory authority, and the message router standing in for the TCP
// links between nodes.
type Network struct {
	directory *Directory

	mu        sync.RWMutex
	nodes     map[string]node
	externals map[string]func(net.Conn)
	closed    bool

	circSeq atomic.Uint32

	rngMu sync.Mutex
	rng   *rand.Rand

	ctrlTimeout time.Duration

	// faults, when set, vets every routed cell (deterministic
	// drop/delay/reset injection; see FaultInjector).
	faults *FaultInjector
}

// NewNetwork creates an empty network. The seed drives relay selection so
// that experiments are reproducible.
func NewNetwork(seed int64) *Network {
	return &Network{
		directory:   NewDirectory(),
		nodes:       make(map[string]node),
		externals:   make(map[string]func(net.Conn)),
		rng:         rand.New(rand.NewSource(seed)),
		ctrlTimeout: controlTimeout,
	}
}

// Directory exposes the network's directory authority.
func (n *Network) Directory() *Directory { return n.directory }

// SetControlTimeout overrides the circuit-level round-trip timeout
// (default 10s); tests exercising failures shorten it.
func (n *Network) SetControlTimeout(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if d > 0 {
		n.ctrlTimeout = d
	}
}

// controlDeadline returns the configured circuit round-trip timeout.
func (n *Network) controlDeadline() time.Duration {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ctrlTimeout
}

// AddBridge spins up a relay that is NOT listed in the main directory —
// §II-A: "Some Tor relays - bridges - are not listed in the main Tor
// directory, to make it more difficult for ISPs or other entities to
// identify or block access to Tor". Clients configured with the bridge ID
// use it as their entry hop.
func (n *Network) AddBridge(id string) (*Relay, error) {
	r, err := newRelay(n, id)
	if err != nil {
		return nil, err
	}
	if err := n.attach(r); err != nil {
		return nil, err
	}
	r.start()
	return r, nil
}

// StopRelay stops a relay, removes it from the directory and detaches it
// from the fabric; circuits through it go dark, as when a real relay
// drops off the network.
func (n *Network) StopRelay(id string) error {
	n.mu.Lock()
	nd, ok := n.nodes[id]
	if ok {
		delete(n.nodes, id)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("onion: no node %q", id)
	}
	n.directory.RemoveRelay(id)
	if s, ok := nd.(interface{ stop() }); ok {
		s.stop()
	}
	return nil
}

// nextCirc allocates a network-unique circuit ID.
func (n *Network) nextCirc() uint32 {
	return n.circSeq.Add(1)
}

// attach registers a node on the fabric.
func (n *Network) attach(nd node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("onion: network is closed")
	}
	if _, ok := n.nodes[nd.ID()]; ok {
		return fmt.Errorf("onion: node ID %q already attached", nd.ID())
	}
	n.nodes[nd.ID()] = nd
	return nil
}

// detach removes a node from the fabric.
func (n *Network) detach(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
}

// SetFaultInjector installs (or, with nil, removes) a fault plan vetting
// every routed cell. Install before traffic starts for a reproducible
// decision sequence.
func (n *Network) SetFaultInjector(fi *FaultInjector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = fi
}

// send routes a cell to the destination node. Unknown destinations are
// dropped, as a failed TCP link would drop traffic.
func (n *Network) send(to string, c Cell) {
	n.mu.RLock()
	nd, ok := n.nodes[to]
	fi := n.faults
	n.mu.RUnlock()
	if !ok {
		return
	}
	if fi != nil {
		switch action, delay := fi.decide(c); action {
		case faultDrop:
			return
		case faultReset:
			// The link resets: the destination sees the circuit die
			// instead of the cell.
			nd.deliver(Cell{Circ: c.Circ, Cmd: CmdDestroy, From: c.From})
			return
		case faultDelay:
			time.Sleep(delay)
		}
	}
	nd.deliver(c)
}

// AddRelays spins up count relays named relay-0, relay-1, ... and registers
// them with the directory. It returns their IDs.
func (n *Network) AddRelays(count int) ([]string, error) {
	ids := make([]string, 0, count)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("relay-%d", i)
		if _, err := n.AddRelay(id); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// AddRelay spins up one named relay.
func (n *Network) AddRelay(id string) (*Relay, error) {
	r, err := newRelay(n, id)
	if err != nil {
		return nil, err
	}
	if err := n.attach(r); err != nil {
		return nil, err
	}
	n.directory.AddRelay(id)
	r.start()
	return r, nil
}

// RegisterExternal makes a non-onion destination reachable through exit
// relays (the "standard websites" of §II-A). The handler receives the
// server end of each connection and is responsible for closing it.
func (n *Network) RegisterExternal(host string, handler func(net.Conn)) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.externals[host]; ok {
		return fmt.Errorf("onion: external host %q already registered", host)
	}
	n.externals[host] = handler
	return nil
}

// externalHandler looks up an external destination.
func (n *Network) externalHandler(host string) (func(net.Conn), bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	h, ok := n.externals[host]
	return h, ok
}

// PickRelays selects k distinct relays uniformly at random, excluding the
// given IDs — the client's path selection.
func (n *Network) PickRelays(k int, exclude ...string) ([]string, error) {
	all := n.directory.Relays()
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	var candidates []string
	for _, id := range all {
		if !skip[id] {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) < k {
		return nil, fmt.Errorf("onion: need %d relays, only %d available", k, len(candidates))
	}
	n.rngMu.Lock()
	n.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	n.rngMu.Unlock()
	picked := candidates[:k]
	sort.Strings(picked) // deterministic presentation; order on path is caller's
	return append([]string(nil), picked...), nil
}

// Close stops every attached node and refuses new attachments.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	n.mu.Unlock()
	for _, nd := range nodes {
		if s, ok := nd.(interface{ stop() }); ok {
			s.stop()
		}
	}
}
