// Package faultinject provides deterministic fault injection for the
// resilience layer: an Injector is armed with per-site faults — panic,
// error, or delay — that fire on exact hit counts (or, optionally, with a
// seeded pseudo-random probability), so every failure path of the engine
// and the patching semantics can be exercised reproducibly in tests.
//
// Sites are plain strings agreed between the code under test and the test
// (the engine hits "engine/diff" once per diff; mtree hits "mtree/edit"
// before each edit of a fault-injected Patch). A nil *Injector is a valid
// no-op: production code calls Hit unconditionally and pays one nil check
// when injection is off.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error, so tests
// can tell injected failures from organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// Kind selects what a fault does when it fires.
type Kind uint8

const (
	// Error makes Hit return an error (Fault.Err, or ErrInjected).
	Error Kind = iota
	// Panic makes Hit panic with a descriptive string value.
	Panic
	// Delay makes Hit sleep for Fault.Delay before returning nil — the
	// tool for driving a diff past its deadline.
	Delay
)

// String names the kind for error messages and panic values.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}

// Fault arms one failure at one site. The zero value of the trigger fields
// means "fire on every hit": set After to skip the first hits, Times to
// bound how often it fires, or Prob for seeded probabilistic firing.
type Fault struct {
	// Site names the injection point, e.g. "engine/diff".
	Site string
	// Kind selects the failure: Error, Panic, or Delay.
	Kind Kind
	// After skips the first After hits of the site before the fault may
	// fire (After: 3 → first firing candidate is the 4th hit).
	After uint64
	// Times bounds how many times the fault fires; 0 means no bound.
	Times uint64
	// Prob, when positive, gates each candidate hit on the injector's
	// seeded RNG instead of firing unconditionally. Deterministic for a
	// fixed seed and hit sequence.
	Prob float64
	// Delay is how long a Delay fault sleeps.
	Delay time.Duration
	// Err is what an Error fault returns, wrapped so it still matches
	// ErrInjected; nil uses ErrInjected alone.
	Err error
}

type armedFault struct {
	Fault
	fired uint64
}

// Injector decides, per site hit, whether an armed fault fires. All
// methods are concurrency-safe; the decision sequence is deterministic for
// a fixed seed and per-site hit order.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	hits  map[string]uint64
	sites map[string][]*armedFault
}

// New returns an Injector seeded for the probabilistic mode and armed with
// the given faults.
func New(seed int64, faults ...Fault) *Injector {
	in := &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		hits:  make(map[string]uint64),
		sites: make(map[string][]*armedFault),
	}
	for _, f := range faults {
		in.sites[f.Site] = append(in.sites[f.Site], &armedFault{Fault: f})
	}
	return in
}

// Hit registers one hit of the site and fires at most one armed fault: a
// Delay sleeps then returns nil, an Error returns the armed error wrapped
// around ErrInjected, and a Panic panics. A nil Injector (and any site
// with no armed faults) is a no-op returning nil.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.hits[site]++
	n := in.hits[site]
	var fire *armedFault
	for _, f := range in.sites[site] {
		if n <= f.After {
			continue
		}
		if f.Times > 0 && f.fired >= f.Times {
			continue
		}
		if f.Prob > 0 && in.rng.Float64() >= f.Prob {
			continue
		}
		f.fired++
		fire = f
		break
	}
	in.mu.Unlock()
	if fire == nil {
		return nil
	}
	switch fire.Kind {
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic at %s (hit %d)", site, n))
	case Delay:
		time.Sleep(fire.Delay)
		return nil
	default:
		if fire.Err != nil {
			return fmt.Errorf("faultinject: at %s (hit %d): %w: %w", site, n, ErrInjected, fire.Err)
		}
		return fmt.Errorf("faultinject: at %s (hit %d): %w", site, n, ErrInjected)
	}
}

// Hits returns how often the site has been hit.
func (in *Injector) Hits(site string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

// Fired returns how many times faults armed at the site have fired.
func (in *Injector) Fired(site string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var total uint64
	for _, f := range in.sites[site] {
		total += f.fired
	}
	return total
}
