package ioa

import "fmt"

// Wrapped returns the automaton a Hide or a Rename wraps, and nil for
// anything else: what the definitional reference of the external tests
// recurses into.
func Wrapped(a Automaton) Automaton {
	switch w := a.(type) {
	case *hidden:
		return w.inner
	case *Renamed:
		return w.inner
	}
	return nil
}

// CellIndices returns, for each leaf of the composition under a's
// wrappers, the index of every cell the leaf's key map holds, in the
// order of the leaf's table, and an error if the two disagree: a cell in
// one and not the other, or a table entry whose index is not its place.
func CellIndices(a Automaton) ([][]uint64, error) {
	_, under := wrappers(a)
	c := under.(*Composite)
	out := make([][]uint64, len(c.leaves))
	for k, l := range c.leaves {
		var table []*leafCell
		if t := l.table.Load(); t != nil {
			table = *t
		}
		mapped := 0
		var err error
		l.cells.Range(func(key, v any) bool {
			mapped++
			if cell := v.(*leafCell); cell.index >= uint64(len(table)) || table[cell.index] != cell {
				err = fmt.Errorf("leaf %d: the cell of %q, index %d, is not in its table of %d", k, key, cell.index, len(table))
			}
			return err == nil
		})
		if err != nil {
			return nil, err
		}
		if mapped != len(table) {
			return nil, fmt.Errorf("leaf %d: %d cells in its key map, %d in its table", k, mapped, len(table))
		}
		for _, cell := range table {
			out[k] = append(out[k], cell.index)
		}
	}
	return out, nil
}
