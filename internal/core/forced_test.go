package core

import (
	"repro/internal/geom"
	"repro/internal/plan"
	"repro/internal/transform"
)

// storeOf reaches behind an Engine to the one store type, shardsOf to its
// partitions, and only to the partition of a one-shard store: where a suite
// checks what a partition holds, it looks there.
func storeOf(e Engine) *Store {
	if db, ok := e.(*DB); ok {
		return db.Store
	}
	return e.(*Store)
}

func shardsOf(e Engine) []*shard { return storeOf(e).shards }

// ownerOf is the partition a series name hashes to.
func ownerOf(e Engine, name string) *shard {
	s := storeOf(e)
	return s.shards[s.ShardOf(name)]
}

// pointOf is the feature point the index holds for a stored id.
func pointOf(e Engine, id int64) (geom.Point, bool) {
	prep, ok := e.QueryPrep(id)
	if !ok {
		return nil, false
	}
	return prep.Point, true
}

func (db *DB) only() *shard { return db.shards[0] }

// The suites pin a strategy the way every caller does: a forced plan,
// executed through the one entry point per query kind.

func forcedRange(e Engine, q RangeQuery, want plan.Strategy) ([]Result, ExecStats, error) {
	pl, err := e.PlanRange(q, want)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return e.ExecRangeInto(q, pl, nil)
}

func forcedNN(e Engine, q NNQuery, want plan.Strategy) ([]Result, ExecStats, error) {
	pl, err := e.PlanNN(q, want)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return e.ExecNNInto(q, pl, nil)
}

// forcedJoinTwoSided is the index-nested-loop two-sided join: ordered pairs
// (x, y), x != y, with D(L(nf(x)), R(nf(y))) <= eps.
func forcedJoinTwoSided(e Engine, eps float64, left, right transform.T) ([]JoinPair, ExecStats, error) {
	q := JoinQuery{Eps: eps, Left: left, Right: right, TwoSided: true}
	pl, err := e.PlanJoin(q, plan.Index)
	if err != nil {
		return nil, ExecStats{}, err
	}
	return e.ExecJoin(q, pl)
}
