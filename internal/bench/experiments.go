package bench

// Result is what every experiment renders: a table and the shape checks
// the reproduction is required to preserve. Figures 1 and 2 and the
// breakdown also have a CSV method.
type Result interface {
	Table() string
	CheckShape() []error
}

// Experiment is one entry of cmd/figures' -fig list.
type Experiment struct {
	// Name is the -fig value that selects it.
	Name string
	Run  func(r Runner, seed int64, scale Scale) Result
}

// experiment adapts a sweep returning its own result type to the table's
// common signature.
func experiment[T Result](name string, run func(Runner, int64, Scale) T) Experiment {
	return Experiment{name, func(r Runner, seed int64, scale Scale) Result { return run(r, seed, scale) }}
}

// Experiments lists the paper's figures, prose claims and the
// repository's ablations in the order `cmd/figures -fig all` prints them
// and figures_full.txt records them.
var Experiments = []Experiment{
	experiment("1", Runner.Figure1),
	experiment("2", Runner.Figure2),
	experiment("c1", func(_ Runner, seed int64, _ Scale) ClaimC1 { return RunClaimC1(seed) }),
	experiment("c2", Runner.ClaimC2),
	experiment("c3", Runner.ClaimC3),
	experiment("a1", Runner.AblationA1),
	experiment("a2", Runner.AblationA2),
	experiment("a3", Runner.AblationA3),
	experiment("a4", Runner.AblationA4),
}
