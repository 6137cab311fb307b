package cc

import (
	"strings"
	"testing"
	"unsafe"

	"customfit/internal/idle/idletest"
	"customfit/internal/obs"
)

// TestReleasedWorkspacePinsNothing checks the idle rule for the
// frontend's workspace: once Parse, Check and LowerFile have handed it
// back it holds no pointer at all (idletest.Pinned walks every list to
// its capacity), and the collector agrees: the source, its AST and the
// lowered function are collected while the workspace sits idle in the
// list, and no second one is made.
func TestReleasedWorkspacePinsNothing(t *testing.T) {
	col := obs.NewCollector()
	obs.Install(col)
	defer obs.Install(nil)
	made := col.Counter("cc.arenas_made")

	var gone idletest.Watch
	var before int64
	func() {
		src := strings.Clone(`
			const short w[4] = {1, 3, 3, 1};
			kernel k(byte in[], byte out[], int n) {
				int i; int acc;
				for (i = 0; i < n; i++) {
					int c; int t[2];
					acc = 0;
					for (c = 0; c < 4; c++) { acc += in[i + c] * w[c]; }
					t[0] = acc; t[1] = -acc;
					if (acc > 255) { out[i] = 255; } else { out[i] = (byte) max(t[0], t[1]); }
				}
			}`)
		f, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(f); err != nil {
			t.Fatal(err)
		}
		fns, err := LowerFile(f)
		if err != nil {
			t.Fatal(err)
		}
		before = made.Value()
		ws := workspaces.Get() // the one LowerFile just gave back
		ws.release()
		for _, path := range idletest.Pinned(ws) {
			t.Errorf("the released workspace still holds %s", path)
		}
		gone.Add(unsafe.StringData(src), "the source")
		gone.Add(f, "the AST")
		gone.Add(fns[0], "the lowered function")
	}()
	for _, name := range gone.Wait(func() { workspaces.Get().release() }) {
		t.Errorf("an idle workspace pins %s", name)
	}
	if made.Value() != before {
		t.Error("the workspace did not stay idle in the list while the request was collected")
	}
}
