package embed

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/matrix"
)

// WriteTSV serializes the embedding as one line per entity: the entity
// name, a tab, then the space-separated vector, each value in the
// shortest form that parses back to the same float32. The format
// round-trips bit for bit through ReadTSV and is trivially consumable
// from any language.
func (e *Embedding) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i, name := range e.Names() {
		if strings.ContainsAny(name, "\t\n") {
			return fmt.Errorf("embed: name %q contains a separator", name)
		}
		line = append(append(line[:0], name...), '\t')
		for j, v := range e.row(i) {
			if j > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendFloat(line, float64(v), 'g', -1, 32)
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses an embedding written by WriteTSV. All rows must share
// one dimension. Each value is parsed straight to the nearest float32,
// the precision the embedding stores; a value beyond float32's range
// reads as ±Inf, as NewEmbedding would round it.
func ReadTSV(r io.Reader) (*Embedding, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var names []string
	var rows [][]float64
	dim := -1
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" {
			continue
		}
		tab := strings.IndexByte(text, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("embed: line %d: no tab separator", line)
		}
		name := text[:tab]
		fields := strings.Fields(text[tab+1:])
		if dim == -1 {
			dim = len(fields)
		} else if len(fields) != dim {
			return nil, fmt.Errorf("embed: line %d: %d dims, want %d", line, len(fields), dim)
		}
		vec := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 32)
			if err != nil && !errors.Is(err, strconv.ErrRange) {
				return nil, fmt.Errorf("embed: line %d: %w", line, err)
			}
			vec[i] = v
		}
		names = append(names, name)
		rows = append(rows, vec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("embed: read: %w", err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("embed: empty embedding file")
	}
	return NewEmbedding(names, matrix.FromRows(rows)), nil
}
