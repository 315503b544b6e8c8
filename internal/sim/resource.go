package sim

// Resource models a serially occupied facility such as a mesh link, a DMA
// channel, or the eLink: at most one transfer uses it at a time and later
// requests queue behind earlier ones in virtual time.
//
// It is a bandwidth-accounting model, not a flit-level one: a transfer of
// duration d requested at time t begins at max(t, freeAt) and the resource
// is then busy until begin+d. This captures serialization and queueing
// delay, which is what the paper's bandwidth/contention experiments
// exercise, at a tiny fraction of the cost of per-flit simulation.
type Resource struct {
	name   string
	freeAt Time
}

// NewResource creates a named resource that is free at time zero.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Use books an occupancy of duration d requested at time t and returns the
// interval [begin, end) during which the resource is held. The caller is
// responsible for advancing its own clock to end (or to begin+latency) as
// appropriate.
func (r *Resource) Use(t, d Time) (begin, end Time) {
	begin = t
	if r.freeAt > begin {
		begin = r.freeAt
	}
	end = begin + d
	r.freeAt = end
	return begin, end
}

// FreeAt returns the earliest time a new request could begin service.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Reset makes the resource free immediately.
func (r *Resource) Reset() { r.freeAt = 0 }
