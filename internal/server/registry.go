package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"imdist/internal/core"
	"imdist/internal/sketchio"
)

// sketchNameRe limits sketch names to one URL path segment of safe
// characters, since names are routed as /v1/sketches/{name}/... .
var sketchNameRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

// ErrUnknownSketch reports a query or admin operation naming a sketch the
// registry does not hold.
var ErrUnknownSketch = errors.New("server: unknown sketch")

// sketchEntry is one loaded sketch: the oracle plus everything whose
// lifetime must match it — the per-sketch result cache, the per-sketch
// single-flight group, the identity prefix of its cache keys, and the
// refcounted mapping it may alias. Entries are immutable after construction;
// a reload builds a fresh entry and swaps it in (copy-on-swap), so in-flight
// queries keep a consistent view of oracle + cache + identity throughout.
type sketchEntry struct {
	name   string
	oracle *core.Oracle
	id     Identity
	cache  *lruCache
	flight *flightGroup
	// keyPrefix encodes the sketch's identity (name, diffusion model, build
	// seed, n, RR-set count) into every cache key. Isolation primarily comes
	// from each entry owning its cache — a reload swaps in a fresh one — but
	// the identity prefix keeps the keys collision-free by construction even
	// if entries ever share a store (and makes stale-entry bugs impossible
	// to reintroduce silently).
	keyPrefix string
	source    string
	loadedAt  time.Time
	// mapped is the refcounted file mapping backing the oracle, nil for
	// in-memory oracles. Queries hold a reference for their whole duration
	// (acquire/release), so an unload or reload never unmaps under them.
	mapped *sketchio.MappedSketch
	// seedRuns counts actual GreedySeeds computations (not cache or
	// single-flight joins); /v1/sketches reports it, and the stampede
	// regression test asserts it stays at 1 under concurrent identical load.
	seedRuns atomic.Uint64
}

func newSketchEntry(name string, oracle *core.Oracle, mapped *sketchio.MappedSketch, source string, cacheSize int) *sketchEntry {
	return &sketchEntry{
		name:   name,
		oracle: oracle,
		id: Identity{
			Vertices:  oracle.NumVertices(),
			Model:     oracle.Model().String(),
			BuildSeed: oracle.BuildSeed(),
			TotalSets: oracle.NumSets(),
		},
		cache:  newLRUCache(cacheSize),
		flight: newFlightGroup(),
		keyPrefix: fmt.Sprintf("%s|%s|%d|%d|%d|", name,
			oracle.Model(), oracle.BuildSeed(), oracle.NumVertices(), oracle.NumSets()),
		source:   source,
		loadedAt: time.Now(),
		mapped:   mapped,
	}
}

// acquire takes a query reference on the entry's backing storage. It returns
// false only when the entry was unloaded and its mapping already closed
// between the registry lookup and this call — impossible while the registry
// holds the entry, since the owner reference is dropped only after removal.
func (e *sketchEntry) acquire() bool {
	if e.mapped == nil {
		return true
	}
	return e.mapped.Acquire()
}

func (e *sketchEntry) release() {
	if e.mapped != nil {
		e.mapped.Release()
	}
}

// retire drops the registry's owner reference after the entry has been
// swapped out; the backing mapping is unmapped once the last in-flight
// query releases.
func (e *sketchEntry) retire() {
	if e.mapped != nil {
		e.mapped.Close()
	}
}

// Registry is the named set of sketches a Server routes queries to. All
// methods are safe for concurrent use with each other and with query
// traffic; loads and unloads are copy-on-swap, so queries in flight on a
// replaced sketch finish on the oracle they started with while new requests
// see the replacement.
type Registry struct {
	mu          sync.RWMutex
	entries     map[string]*sketchEntry
	defaultName string
	cacheSize   int
	// kernel is applied to every oracle that enters the registry (Register
	// and LoadFile), so one server-level knob governs all sketches uniformly.
	kernel core.Kernel
}

// NewRegistry returns an empty registry whose sketches each get an LRU
// result cache of cacheSize entries (negative disables caching).
func NewRegistry(cacheSize int) *Registry {
	return &Registry{entries: make(map[string]*sketchEntry), cacheSize: cacheSize}
}

// SetKernel selects the coverage kernel applied to every sketch subsequently
// registered or loaded (server.New calls it with Config.Kernel before the
// first registration). Sketches already held are unaffected.
func (r *Registry) SetKernel(k core.Kernel) {
	r.mu.Lock()
	r.kernel = k
	r.mu.Unlock()
}

// applyKernel installs the registry's kernel selection on an oracle about to
// enter the registry. The kernel was validated when it was set, so the
// oracle's own validation cannot fail here.
func (r *Registry) applyKernel(oracle *core.Oracle) {
	r.mu.RLock()
	k := r.kernel
	r.mu.RUnlock()
	if k != "" {
		_ = oracle.SetKernel(k)
	}
}

func validateSketchName(name string) error {
	if !sketchNameRe.MatchString(name) {
		return fmt.Errorf("server: invalid sketch name %q (want one path segment of [A-Za-z0-9._-], at most 128 chars)", name)
	}
	return nil
}

// SketchNameForFile derives a sketch's registry name from its file path:
// the base name without the .sketch extension.
func SketchNameForFile(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".sketch")
}

// ParseSketchSpec splits one CLI sketch spec into its name and file path.
// A spec is either "name=path" or a bare path, whose name is derived with
// SketchNameForFile; imserve's -sketch and imbench's -sketch flags share
// this syntax.
func ParseSketchSpec(spec string) (name, path string, err error) {
	if n, p, ok := strings.Cut(spec, "="); ok {
		if n == "" || p == "" {
			return "", "", fmt.Errorf("server: invalid sketch spec %q: want name=path", spec)
		}
		return n, p, nil
	}
	if spec == "" {
		return "", "", errors.New("server: empty sketch spec")
	}
	return SketchNameForFile(spec), spec, nil
}

// Register loads an in-memory oracle under name, replacing any sketch
// already held under it. The first sketch registered becomes the default
// unless a default was set explicitly.
func (r *Registry) Register(name string, oracle *core.Oracle) error {
	if oracle == nil {
		return errors.New("server: Register requires an oracle")
	}
	if err := validateSketchName(name); err != nil {
		return err
	}
	r.applyKernel(oracle)
	r.swap(newSketchEntry(name, oracle, nil, "", r.cacheSize))
	return nil
}

// LoadFile loads the sketch file at path under name, replacing any sketch
// already held under it. The file is memory-mapped (and served zero-copy)
// where the platform supports it; the previous mapping, if any, is unmapped
// once its last in-flight query finishes.
func (r *Registry) LoadFile(name, path string) error {
	if err := validateSketchName(name); err != nil {
		return err
	}
	m, err := sketchio.OpenMapped(path)
	if err != nil {
		return fmt.Errorf("loading sketch %q from %s: %w", name, path, err)
	}
	r.applyKernel(m.Oracle())
	r.swap(newSketchEntry(name, m.Oracle(), m, path, r.cacheSize))
	return nil
}

func (r *Registry) swap(e *sketchEntry) {
	r.mu.Lock()
	old := r.entries[e.name]
	r.entries[e.name] = e
	if r.defaultName == "" {
		r.defaultName = e.name
	}
	r.mu.Unlock()
	if old != nil {
		old.retire()
	}
}

// Unload removes the sketch held under name; its backing storage is
// released once the last in-flight query finishes. Unloading the default
// sketch leaves the default name dangling: legacy unnamed routes 404 until
// the name is loaded again or the default is changed.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	old, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSketch, name)
	}
	old.retire()
	return nil
}

// UnloadAll removes every sketch (shutdown path).
func (r *Registry) UnloadAll() {
	r.mu.Lock()
	old := r.entries
	r.entries = make(map[string]*sketchEntry)
	r.mu.Unlock()
	for _, e := range old {
		e.retire()
	}
}

// SetDefault names the sketch legacy unnamed routes alias. The name does
// not need to be loaded yet (imserve sets the default before its first
// directory scan); unnamed routes 404 until it is.
func (r *Registry) SetDefault(name string) error {
	if err := validateSketchName(name); err != nil {
		return err
	}
	r.mu.Lock()
	r.defaultName = name
	r.mu.Unlock()
	return nil
}

// DefaultName returns the name aliased by legacy unnamed routes ("" when no
// sketch has ever been registered and no default was set).
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultName
}

// Names returns the loaded sketch names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Contains reports whether a sketch is loaded under name.
func (r *Registry) Contains(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.entries[name]
	return ok
}

// Len returns the number of loaded sketches.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// acquire resolves name ("" means the default sketch) to its entry and takes
// a query reference on it; the caller must release() when the query is done.
// The reference is taken under the registry lock, so a concurrent unload or
// reload cannot unmap the entry before the caller is counted.
func (r *Registry) acquire(name string) (*sketchEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defaultName
	}
	e, ok := r.entries[name]
	if !ok || !e.acquire() {
		return nil, false
	}
	return e, true
}

// snapshot returns the current entries (references NOT acquired — callers
// must only read immutable fields and counters) plus the default name.
func (r *Registry) snapshot() ([]*sketchEntry, string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	entries := make([]*sketchEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries, r.defaultName
}

// flightGroup collapses concurrent duplicate work: all callers of Do with
// the same key while a call is in flight share that call's single execution
// and result. This is the stampede fix for cold-cache /v1/seeds — N
// identical concurrent requests run greedy selection once.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// Do runs fn once per key among concurrent callers: the first caller
// executes, the rest block and share its return values.
func (g *flightGroup) Do(key string, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	close(c.done)

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	return c.val, c.err
}
