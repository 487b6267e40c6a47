package query

// PlanCalls returns how many plans kb has built, so the plan cache's tests
// can tell a cache hit from a re-plan.
func (kb *KB) PlanCalls() uint64 { return kb.planCalls.Load() }
