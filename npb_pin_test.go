package cypress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/npb"
)

var updateNPBPin = flag.Bool("update", false, "rewrite the NPB output pin from fresh traces")

// npbPinPath holds one line per NPB skeleton traced at npbPinRanks ranks:
// the workload name, the SHA-256 of its WriteTrace bytes and the run's
// SimulatedNS. Regenerate it only for an intentional output change:
//
//	go test . -run TestNPBOutputPin -update
var npbPinPath = filepath.Join("testdata", "npb_pin.txt")

const npbPinRanks = 64

// TestNPBOutputPin pins the whole execute → compress → merge → encode path
// on every NPB skeleton: the interpreter, the MPI runtime and the compressor
// must together reproduce the exact encoded bytes and the exact simulated
// job time. It is the guard for rewrites of the execution layer, which must
// change speed but never output.
func TestNPBOutputPin(t *testing.T) {
	var got strings.Builder
	for _, w := range npb.All() {
		p, err := Compile(w.Source(npbPinRanks, npb.Paper))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, err := p.Trace(npbPinRanks, Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var buf bytes.Buffer
		if _, err := res.WriteTrace(&buf, false); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&got, "%s %s %s\n", w.Name, hex.EncodeToString(sum[:]),
			strconv.FormatFloat(res.SimulatedNS, 'g', -1, 64))
	}
	if *updateNPBPin {
		if err := os.WriteFile(npbPinPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(npbPinPath)
	if err != nil {
		t.Fatalf("missing NPB output pin (run with -update to generate): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("NPB output drifted from %s:\ngot:\n%swant:\n%s", npbPinPath, got.String(), want)
	}
}
