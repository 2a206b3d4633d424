package experiments

import (
	"context"
	"fmt"
)

// All runs every experiment at its default scale and returns the tables
// in order. Seed fixes all randomness; ctx cancels the query-serving
// experiments mid-sweep.
func All(ctx context.Context, seed int64) ([]*Table, error) {
	var out []*Table
	e1 := E1Matching(seed, 3, 4)
	out = append(out, e1.Table)
	out = append(out, E1LearningCurve(seed, 4, 3))
	steps := []func() (*Table, error){
		func() (*Table, error) { return E2Transitive(ctx, seed, 8) },
		func() (*Table, error) { return E3MappingEffort(seed, 16) },
		func() (*Table, error) { return E4Reformulation(seed, 8) },
		func() (*Table, error) { return E5Publish(seed, 20) },
		func() (*Table, error) { return E6Advisor(seed, 4) },
		func() (*Table, error) { return E7Integrity(seed, 12) },
		func() (*Table, error) { return E8Updategrams(seed, 20) },
		func() (*Table, error) { return E9Templates(seed, 8) },
		func() (*Table, error) { return E10Stats(seed, 8) },
		func() (*Table, error) { return E11Degradation(seed, 10) },
		func() (*Table, error) { return E12Normalizers(seed) },
	}
	for i, step := range steps {
		t, err := step()
		if err != nil {
			return nil, fmt.Errorf("experiment %d: %w", i+2, err)
		}
		out = append(out, t)
	}
	return out, nil
}
