// Package join materializes joined training tables from ground-truth
// key/foreign-key metadata. It implements the Full Table baseline: the
// carefully-supervised, schema-aware data assembly Leva is compared
// against (paper Section 2.2). Only baselines use this package — Leva's
// own pipeline never sees key information.
//
// Join cardinalities are handled the way the paper says analysts must:
// N:1 joins attach the referenced row's attributes directly, while 1:N
// joins aggregate the referencing rows (mean and count for numeric
// attributes, mode for strings) so the result keeps the base table's row
// distribution.
package join

import (
	"fmt"

	"repro/internal/dataset"
)

// Options bounds the recursive expansion.
type Options struct {
	// MaxDepth limits how many FK hops from the base table are
	// materialized. Default 3.
	MaxDepth int
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	return o
}

// FullTable assembles the Full Table for baseName: the base table
// augmented with every table reachable over ground-truth foreign keys,
// with 1:N sides aggregated. The returned table has the base table's
// rows; augmented columns are prefixed with the join path.
func FullTable(db *dataset.Database, baseName string, opts Options) (*dataset.Table, error) {
	opts = opts.withDefaults()
	base := db.Table(baseName)
	if base == nil {
		return nil, fmt.Errorf("join: no table %q", baseName)
	}
	visited := map[string]bool{baseName: true}
	return augment(db, base, visited, opts.MaxDepth), nil
}

// augment recursively expands t with N:1 lookups and 1:N aggregates.
// visited protects against cycles; each recursion level copies it so
// sibling branches can both reach a shared dimension table.
func augment(db *dataset.Database, t *dataset.Table, visited map[string]bool, depth int) *dataset.Table {
	out := t.Clone()
	if depth <= 0 {
		return out
	}

	// N:1 — follow this table's own foreign keys.
	for _, fk := range t.ForeignKeys {
		ref := db.Table(fk.RefTable)
		if ref == nil || visited[fk.RefTable] {
			continue
		}
		sub := copyVisited(visited)
		sub[fk.RefTable] = true
		refAug := augment(db, ref, sub, depth-1)
		attachLookup(out, fk.Column, refAug, fk.RefColumn, fk.RefTable)
	}

	// 1:N — find other tables whose foreign keys reference this table.
	for _, other := range db.Tables {
		if visited[other.Name] {
			continue
		}
		for _, fk := range other.ForeignKeys {
			if fk.RefTable != t.Name {
				continue
			}
			sub := copyVisited(visited)
			sub[other.Name] = true
			otherAug := augment(db, other, sub, depth-1)
			attachAggregates(out, fk.RefColumn, otherAug, fk.Column, other.Name)
		}
	}
	return out
}

func copyVisited(v map[string]bool) map[string]bool {
	out := make(map[string]bool, len(v)+1)
	for k, b := range v {
		out[k] = b
	}
	return out
}

// attachLookup appends ref's columns to out via an N:1 equi-join
// out.onCol = ref.refCol. Missing matches contribute nulls.
func attachLookup(out *dataset.Table, onCol string, ref *dataset.Table, refCol, prefix string) {
	keyCol := ref.Column(refCol)
	if keyCol == nil || out.Column(onCol) == nil {
		return
	}
	index := make(map[dataset.Value]int, keyCol.Len())
	for i, v := range keyCol.Values {
		if _, dup := index[v]; !dup && !v.IsNull() {
			index[v] = i
		}
	}
	on := out.Column(onCol)
	for _, c := range ref.Columns {
		if c.Name == refCol {
			continue // the key itself duplicates the join column
		}
		vals := make([]dataset.Value, len(on.Values))
		for i, v := range on.Values {
			if j, ok := index[v]; ok {
				vals[i] = c.Values[j]
			} else {
				vals[i] = dataset.Null()
			}
		}
		out.Columns = append(out.Columns, &dataset.Column{
			Name:   prefix + "." + c.Name,
			Values: vals,
		})
	}
}

// attachAggregates appends aggregated columns from other via the 1:N
// join out.onCol = other.fkCol: per numeric column a mean, per string
// column the mode, plus one match-count column.
func attachAggregates(out *dataset.Table, onCol string, other *dataset.Table, fkCol, prefix string) {
	fk := other.Column(fkCol)
	if fk == nil || out.Column(onCol) == nil {
		return
	}
	groups := make(map[dataset.Value][]int)
	for i, v := range fk.Values {
		if !v.IsNull() {
			groups[v] = append(groups[v], i)
		}
	}
	on := out.Column(onCol)

	counts := make([]dataset.Value, len(on.Values))
	for i, v := range on.Values {
		counts[i] = dataset.Int(len(groups[v]))
	}
	out.Columns = append(out.Columns, &dataset.Column{
		Name: prefix + ".count", Values: counts,
	})

	for _, c := range other.Columns {
		if c.Name == fkCol {
			continue
		}
		if numericColumn(c) {
			vals := make([]dataset.Value, len(on.Values))
			for i, v := range on.Values {
				vals[i] = meanOf(c, groups[v])
			}
			out.Columns = append(out.Columns, &dataset.Column{
				Name: prefix + "." + c.Name + ".mean", Values: vals,
			})
		} else {
			vals := make([]dataset.Value, len(on.Values))
			for i, v := range on.Values {
				vals[i] = modeOf(c, groups[v])
			}
			out.Columns = append(out.Columns, &dataset.Column{
				Name: prefix + "." + c.Name + ".mode", Values: vals,
			})
		}
	}
}

func numericColumn(c *dataset.Column) bool {
	nonNull, numeric := 0, 0
	for _, v := range c.Values {
		if v.IsNull() {
			continue
		}
		nonNull++
		if _, ok := v.Float(); ok {
			numeric++
		}
	}
	return nonNull > 0 && numeric == nonNull
}

func meanOf(c *dataset.Column, idx []int) dataset.Value {
	s, n := 0.0, 0
	for _, i := range idx {
		if f, ok := c.Values[i].Float(); ok {
			s += f
			n++
		}
	}
	if n == 0 {
		return dataset.Null()
	}
	return dataset.Number(s / float64(n))
}

func modeOf(c *dataset.Column, idx []int) dataset.Value {
	counts := map[string]int{}
	best, bestN := "", 0
	for _, i := range idx {
		v := c.Values[i]
		if v.IsNull() {
			continue
		}
		s := v.Text()
		counts[s]++
		if counts[s] > bestN || (counts[s] == bestN && s < best) {
			best, bestN = s, counts[s]
		}
	}
	if bestN == 0 {
		return dataset.Null()
	}
	return dataset.String(best)
}

// LeftJoinOn materializes a generic left join base.baseCol =
// other.otherCol with 1:N aggregation, used by the discovery baseline to
// attach whatever joins it finds (right or wrong). Appended columns are
// prefixed with prefix.
func LeftJoinOn(base *dataset.Table, baseCol string, other *dataset.Table, otherCol, prefix string) *dataset.Table {
	out := base.Clone()
	attachAggregates(out, baseCol, other, otherCol, prefix)
	return out
}
