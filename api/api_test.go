package api

import (
	"strings"
	"testing"
)

// TestStageKeyIsBaseKeyPrefix: the base key is the stage key followed by
// Algorithm 1's options, and both render defaults canonically. The base
// keys are the ones persisted records carry, so their bytes are pinned.
func TestStageKeyIsBaseKeyPrefix(t *testing.T) {
	for _, c := range []struct {
		req         PlanRequest
		stage, base string
	}{
		{
			PlanRequest{Kernel: "l1", Size: 8},
			"kernel=l1|size=8|pi=[]|search=false|bound=0",
			"kernel=l1|size=8|pi=[]|search=false|bound=0|merge=1|noaux=false|choice=0",
		},
		{
			PlanRequest{Kernel: "matmul", Size: 4, Pi: []int64{1, 1, 1}, SearchBound: 5, MergeFactor: 3, NoAux: true, GroupingChoice: 1},
			"kernel=matmul|size=4|pi=[1 1 1]|search=false|bound=0",
			"kernel=matmul|size=4|pi=[1 1 1]|search=false|bound=0|merge=3|noaux=true|choice=1",
		},
		{
			PlanRequest{Kernel: "dct", Size: 9, SearchPi: true},
			"kernel=dct|size=9|pi=[]|search=true|bound=2",
			"kernel=dct|size=9|pi=[]|search=true|bound=2|merge=1|noaux=false|choice=0",
		},
	} {
		stage := string(c.req.AppendStageKey(nil))
		base := c.req.Key()
		if stage != c.stage || base != c.base {
			t.Errorf("%+v:\n stage %q, want %q\n base  %q, want %q", c.req, stage, c.stage, base, c.base)
		}
		if !strings.HasPrefix(base, stage+"|") {
			t.Errorf("base key %q does not extend stage key %q", base, stage)
		}
	}
}
