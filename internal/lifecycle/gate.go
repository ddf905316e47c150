package lifecycle

import "log/slog"

// ShadowResult is the promotion gate's verdict: the champion and challenger
// losses on the held-out tail and whether the challenger earned the serving
// slot.
type ShadowResult struct {
	// Holdout is the number of held-out feedback records scored.
	Holdout int `json:"holdout"`
	// ChampionLoss and ChallengerLoss are mean q-errors over the holdout.
	ChampionLoss   float64 `json:"champion_loss"`
	ChallengerLoss float64 `json:"challenger_loss"`
	// Promote is the verdict: the challenger wins on ties (it has seen
	// strictly more feedback), loses otherwise.
	Promote bool `json:"promote"`
}

// LogValue renders the verdict as one structured group, so log lines carry
// the gate's numbers without callers flattening them by hand.
func (r ShadowResult) LogValue() slog.Value {
	return slog.GroupValue(
		slog.Int("holdout", r.Holdout),
		slog.Float64("champion_loss", r.ChampionLoss),
		slog.Float64("challenger_loss", r.ChallengerLoss),
		slog.Bool("promote", r.Promote),
	)
}

// HoldoutSize returns how many records of an n-record training batch the
// shadow gate holds out for scoring: the shadowFraction share of the batch
// (rounded down), at least 1 when the batch can spare a record for training
// (n ≥ 2), 0 otherwise. A batch too small to split is promoted without
// scoring — there is nothing to score against.
func HoldoutSize(n int) int {
	if n < 2 {
		return 0
	}
	return max(int(float64(n)*shadowFraction), 1)
}

// Shadow scores a challenger against the serving champion on held-out
// feedback: actuals are the observed selectivities, champion and challenger
// the two models' estimates for the same predicates. Neither model has
// trained on these records. The loss is the mean q-error (the paper's §5
// accuracy measure); the challenger is promoted when its loss does not
// exceed the champion's — on a tie the fresher model wins, since it has
// absorbed strictly more feedback.
func Shadow(actuals, champion, challenger []float64) ShadowResult {
	champ := Summarize(champion, actuals)
	chall := Summarize(challenger, actuals)
	res := ShadowResult{
		Holdout:        champ.Samples,
		ChampionLoss:   champ.MeanQError,
		ChallengerLoss: chall.MeanQError,
	}
	res.Promote = res.Holdout == 0 || res.ChallengerLoss <= res.ChampionLoss
	return res
}
