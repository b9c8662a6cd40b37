package core

import (
	"errors"
	"fmt"

	"tracepre/internal/sample"
)

// SamplePlan builds and validates the sampling schedule the commands'
// -sample flags describe: a budget-derived default (sample.PlanForBudget)
// with optional overrides. detail and warm are -1 when the flag was not
// given. Errors are one line and name the offending flag.
func SamplePlan(budget uint64, detail, warm int64, targetCI float64) (sample.Plan, error) {
	if budget == 0 {
		return sample.Plan{}, errors.New("-n 0: sampling needs a positive instruction budget")
	}
	if detail < -1 || detail == 0 {
		return sample.Plan{}, fmt.Errorf("-sample-detail %d: measurement units must be positive", detail)
	}
	if warm < -1 {
		return sample.Plan{}, fmt.Errorf("-sample-warm %d: warm-up length cannot be negative", warm)
	}
	if targetCI < 0 {
		return sample.Plan{}, fmt.Errorf("-sample-target-ci %v: relative half-width target cannot be negative", targetCI)
	}
	p := sample.PlanForBudget(budget)
	if detail > 0 {
		p.Detail = uint64(detail)
	}
	if warm >= 0 {
		p.Warm = uint64(warm)
	}
	p.TargetRelCI = targetCI
	if p.Warm > p.Skip {
		return sample.Plan{}, fmt.Errorf("-sample-warm %d exceeds the %d-instruction skip (warm-up is the skip's tail)", p.Warm, p.Skip)
	}
	if err := p.Validate(); err != nil {
		return sample.Plan{}, err
	}
	return p, nil
}
