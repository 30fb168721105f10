package ann

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// boundaryIndexes caches the indexes boundaryIndex builds: one per
// size, shared by every test in the binary.
var boundaryIndexes sync.Map

// boundaryIndex returns an index over n random dim-3 vectors built
// with M 2 and efConstruction 4: cheap enough to sit on either side of
// narrowMaxNodes, where the link-id width changes.
func boundaryIndex(t testing.TB, n int) *Index {
	t.Helper()
	if ix, ok := boundaryIndexes.Load(n); ok {
		return ix.(*Index)
	}
	names, vecs := randomCollection(n, 3, int64(n))
	ix, err := BuildVectors(names, vecs, Options{M: 2, EfConstruction: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := boundaryIndexes.LoadOrStore(n, ix)
	return got.(*Index)
}

// linkCounts returns the frozen adjacency's pair and link counts and
// the address of its first link id, whichever width holds it.
func linkCounts(ix *Index) (pairs, links int, first unsafe.Pointer) {
	if narrowIDs(ix.Len()) {
		return len(ix.narrow.loff) - 1, len(ix.narrow.lids), unsafe.Pointer(unsafe.SliceData(ix.narrow.lids))
	}
	return len(ix.wide.loff) - 1, len(ix.wide.lids), unsafe.Pointer(unsafe.SliceData(ix.wide.lids))
}

// linksView reports whether ix's link ids alias data where index.bin
// stores them.
func linksView(ix *Index, data []byte) bool {
	_, _, first := linkCounts(ix)
	return first == unsafe.Pointer(&data[headerLayout(data).lidsOff()])
}

// TestLinkIDWidthBoundary: an index of narrowMaxNodes nodes keeps its
// link ids as uint16 and one more node makes them int32. At both
// widths Encode's length is the layout arithmetic spelled out here,
// Decode(Encode(x)) re-encodes to the same bytes, and read and mapped
// loads answer every query exactly like the built index.
func TestLinkIDWidthBoundary(t *testing.T) {
	for _, c := range []struct {
		n       int
		idBytes int
	}{{narrowMaxNodes, 2}, {narrowMaxNodes + 1, 4}} {
		t.Run(fmt.Sprintf("n=%d", c.n), func(t *testing.T) {
			built := boundaryIndex(t, c.n)
			narrow, wide := len(built.narrow.lids), len(built.wide.lids)
			if c.idBytes == 2 && (narrow == 0 || wide != 0) || c.idBytes == 4 && (wide == 0 || narrow != 0) {
				t.Fatalf("built %d narrow and %d wide link ids, want only %d-byte ones", narrow, wide, c.idBytes)
			}
			pairs, links, _ := linkCounts(built)
			n, blob := c.n, len(built.syms.Blob())
			// Header, symbol offsets and permutation, first, loff, link
			// ids, names, padding to 4 bytes, float32 vectors.
			want := 64 + 4*(n+1) + 4*n + 4*(n+1) + 4*(pairs+1) + c.idBytes*links + blob
			want = (want+3)&^3 + 4*n*built.Dim()
			data := built.Encode()
			if len(data) != want {
				t.Fatalf("Encode wrote %d bytes, want %d for %d pairs, %d links of %d bytes and %d name bytes",
					len(data), want, pairs, links, c.idBytes, blob)
			}
			dec, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec.Encode(), data) {
				t.Fatal("Decode(Encode(x)) does not re-encode byte-exactly")
			}
			_, read, mapped := loadBoth(t, built)
			defer mapped.Unmap()
			wantAnswers := answers(t, built, false)
			for what, ix := range map[string]*Index{"decoded": dec, "read": read, "mapped": mapped} {
				if !reflect.DeepEqual(answers(t, ix, false), wantAnswers) {
					t.Errorf("%s index answers differ from the built one", what)
				}
			}
		})
	}
}
