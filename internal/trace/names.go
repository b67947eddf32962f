package trace

// Names is an append-only name table: it maps each name to a dense index
// in first-seen order, so per-name state can live in slices indexed by
// it. Event streams repeat names in long runs, so the table memoizes the
// last name resolved and a repeat costs one string comparison instead of
// a map lookup. The zero value is an empty table. Not concurrency-safe.
type Names struct {
	idx   map[string]int
	list  []string
	last  string
	lastI int
}

// Index returns the index of name, assigning the next free one on first
// sight. Indices never move once assigned.
func (n *Names) Index(name string) int {
	if len(n.list) > 0 && name == n.last {
		return n.lastI
	}
	i, ok := n.idx[name]
	if !ok {
		if n.idx == nil {
			n.idx = make(map[string]int)
		}
		i = len(n.list)
		n.idx[name] = i
		n.list = append(n.list, name)
	}
	n.last, n.lastI = name, i
	return i
}

// List returns the names in index order. The slice is the table's own;
// callers must not modify it. Later Index calls only append, so a list
// taken earlier stays valid.
func (n *Names) List() []string { return n.list }
