package lifecycle

import (
	"encoding/json"
	"fmt"
	"time"
)

// Version origins recorded in metadata.
const (
	// OriginInitial is the version created with the estimator itself.
	OriginInitial = "initial"
	// OriginTrained marks a background-trained model that was promoted.
	OriginTrained = "trained"
	// OriginRejected marks a trained challenger the promotion gate turned
	// down; it is archived (never served) so an operator can inspect or
	// manually promote it via rollback.
	OriginRejected = "rejected"
	// OriginRestored marks the serving version reloaded from a snapshot
	// file at boot.
	OriginRestored = "restored"
)

// Version is one immutable numbered model. The Payload is the opaque
// serialized model snapshot (a quicksel.Snapshot envelope in the serving
// registry); metadata describes how the version came to be. Listings strip
// the payload with Meta.
type Version struct {
	// ID is the immutable version number, unique per estimator and
	// monotonically increasing.
	ID int `json:"id"`
	// Origin is one of the Origin* constants.
	Origin string `json:"origin"`
	// CreatedAt is the wall-clock creation time.
	CreatedAt time.Time `json:"created_at"`
	// Observations is the estimator's accepted-observation count when the
	// version was trained.
	Observations uint64 `json:"observations"`
	// Accuracy is the realized window accuracy at creation time.
	Accuracy Metrics `json:"accuracy"`
	// Gate is the shadow-scoring outcome that admitted (or archived) the
	// version; nil for PolicyAlways promotions and the initial version.
	Gate *ShadowResult `json:"gate,omitempty"`
	// Payload is the serialized model; omitted from listings.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Meta returns the version with its payload stripped, for listings.
func (v Version) Meta() Version {
	v.Payload = nil
	return v
}

// Store is the bounded version history of one estimator: the current
// serving version plus up to bound archived versions (previous champions and
// rejected challengers), newest first. Not safe for concurrent use.
type Store struct {
	next    int
	current Version
	history []Version
	bound   int
}

// NewStore builds a version store; bound ≤ 0 takes DefaultHistory.
func NewStore(bound int) *Store {
	if bound <= 0 {
		bound = DefaultHistory
	}
	return &Store{next: 1, bound: bound}
}

// Init records version 1, the model the estimator was created (or reloaded)
// with.
func (s *Store) Init(origin string, payload json.RawMessage) Version {
	s.current = Version{ID: s.next, Origin: origin, CreatedAt: time.Now().UTC(), Payload: payload}
	s.next++
	return s.current.Meta()
}

// Add records a freshly trained model as the next numbered version. When
// promote is true the new version becomes current and the outgoing champion
// is archived; otherwise the new version is archived directly with
// OriginRejected semantics left to the caller's origin argument.
func (s *Store) Add(origin string, payload json.RawMessage, observations uint64, acc Metrics, gate *ShadowResult, promote bool) Version {
	v := Version{
		ID:           s.next,
		Origin:       origin,
		CreatedAt:    time.Now().UTC(),
		Observations: observations,
		Accuracy:     acc,
		Gate:         gate,
		Payload:      payload,
	}
	s.next++
	if promote {
		s.archive(s.current)
		s.current = v
	} else {
		s.archive(v)
	}
	return v.Meta()
}

// archive prepends a version to the bounded history (newest first).
func (s *Store) archive(v Version) {
	s.history = append([]Version{v}, s.history...)
	if len(s.history) > s.bound {
		s.history = s.history[:s.bound]
	}
}

// Current returns the serving version's metadata.
func (s *Store) Current() Version { return s.current.Meta() }

// History returns the archived versions' metadata, newest first.
func (s *Store) History() []Version {
	out := make([]Version, len(s.history))
	for i, v := range s.history {
		out[i] = v.Meta()
	}
	return out
}

// find locates an archived version by id (0 = most recently archived) and
// returns its history index.
func (s *Store) find(id int) (int, error) {
	if id == 0 {
		if len(s.history) == 0 {
			return -1, fmt.Errorf("lifecycle: no archived version to roll back to")
		}
		return 0, nil
	}
	for i, v := range s.history {
		if v.ID == id {
			return i, nil
		}
	}
	return -1, fmt.Errorf("lifecycle: version %d not found (history keeps the last %d versions)", id, s.bound)
}

// Peek returns the archived version Rollback(id) would restore — payload
// included — without moving anything. Callers that must rebuild a model
// from the payload before publishing the rollback use Peek first, so the
// store never points at a version whose model failed to restore.
func (s *Store) Peek(id int) (Version, error) {
	if id == s.current.ID && id != 0 {
		return s.current, nil
	}
	idx, err := s.find(id)
	if err != nil {
		return Version{}, err
	}
	return s.history[idx], nil
}

// Rollback swaps the serving slot to an archived version. id 0 selects the
// most recently archived one — after a promotion that is the previous
// champion. The chosen version leaves the history, the outgoing current is
// archived in its place, and the chosen version's payload is returned so
// the caller can restore the model. Rolling back to the current version is
// a no-op.
func (s *Store) Rollback(id int) (Version, error) {
	if id == s.current.ID && id != 0 {
		return s.current, nil
	}
	idx, err := s.find(id)
	if err != nil {
		return Version{}, err
	}
	chosen := s.history[idx]
	s.history = append(s.history[:idx], s.history[idx+1:]...)
	s.archive(s.current)
	s.current = chosen
	return chosen, nil
}

// StoreState is the serializable form of a Store. Current's payload is
// elided when the caller persists the serving model separately (the
// registry's snapshot file stores it once, in the estimators map).
type StoreState struct {
	Next    int       `json:"next"`
	Current Version   `json:"current"`
	History []Version `json:"history,omitempty"`
}

// State exports the store for persistence. When omitCurrentPayload is true
// the current version's payload is stripped (the caller persists the
// serving model itself elsewhere).
func (s *Store) State(omitCurrentPayload bool) *StoreState {
	cur := s.current
	if omitCurrentPayload {
		cur = cur.Meta()
	}
	return &StoreState{
		Next:    s.next,
		Current: cur,
		History: append([]Version(nil), s.history...),
	}
}

// RestoreStore rebuilds a store from persisted state. currentPayload, when
// non-nil, reattaches the serving model payload elided by State.
func RestoreStore(bound int, st *StoreState, currentPayload json.RawMessage) *Store {
	s := NewStore(bound)
	if st == nil {
		return s
	}
	s.current = st.Current
	if len(s.current.Payload) == 0 {
		s.current.Payload = currentPayload
	}
	s.history = append([]Version(nil), st.History...)
	if len(s.history) > s.bound {
		s.history = s.history[:s.bound]
	}
	s.next = st.Next
	if s.next <= s.current.ID {
		s.next = s.current.ID + 1
	}
	for _, v := range s.history {
		if s.next <= v.ID {
			s.next = v.ID + 1
		}
	}
	return s
}
