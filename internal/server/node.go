package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"quicksel/internal/replica"
)

// FetchConfig tunes a follower's fetch loop: its poll wait, backoff bounds
// and HTTP client. The node fills in the rest of the replica.Config (the
// primary URL, follower ID, watermark, sink and logger) from its Config.
type FetchConfig = replica.Config

// Node is one quickseld node for the life of the process, in either role.
// It answers the boot response until its registry is recovered. A follower
// node also bootstraps from the primary's snapshot, tails the primary's log
// until promotion stops the loop, and wipes and re-bootstraps its state
// when the primary has compacted past it. Serve a Node (it implements
// http.Handler), drive it with Run, and Close it once Run has returned.
type Node struct {
	cfg   Config
	fetch FetchConfig
	log   *slog.Logger
	boot  http.Handler
	// srv is the live server; nil while the node boots or re-bootstraps.
	srv atomic.Pointer[Server]
}

// NewNode prepares a node; Run builds its server.
func NewNode(cfg Config, fetch FetchConfig) *Node {
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	return &Node{cfg: cfg, fetch: fetch, log: log, boot: bootHandler()}
}

// bootHandler serves the start-up window between bind and readiness:
// liveness is already true, readiness and everything else honestly 503.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false,"reason":"starting up"}`)
	})
	return mux
}

// ServeHTTP serves the live server, or the boot answer while there is none.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := n.srv.Load(); s != nil {
		s.ServeHTTP(w, r)
		return
	}
	n.boot.ServeHTTP(w, r)
}

// Run builds the node's server and keeps it serving until ctx is done, then
// returns nil. It returns early only with the error that ended the node,
// which it has logged. A primary recovers its snapshot and log. A follower
// bootstraps from the primary's snapshot when it has no local state, tails
// the primary's log until promotion stops the loop, and after a compaction
// gap closes and wipes its state and bootstraps again.
func (n *Node) Run(ctx context.Context) error {
	if n.cfg.Role != RoleFollower {
		srv, err := New(n.cfg)
		if err != nil {
			n.log.Error("quickseld: startup", slog.Any("error", err))
			return err
		}
		n.srv.Store(srv)
		<-ctx.Done()
		return nil
	}
	for ctx.Err() == nil {
		if err := n.bootstrapIfEmpty(ctx); err != nil {
			n.log.Warn("quickseld: snapshot bootstrap failed; retrying", slog.Any("error", err))
			select {
			case <-ctx.Done():
			case <-time.After(2 * time.Second):
			}
			continue
		}
		srv, err := New(n.cfg)
		if err != nil {
			n.log.Error("quickseld: follower startup", slog.Any("error", err))
			return err
		}
		// The fetcher is the registry's before the server is published, so
		// a promotion request always finds the loop it has to stop.
		f, err := srv.reg.follow(n.fetch)
		if err != nil {
			n.log.Error("quickseld: follower startup", slog.Any("error", err))
			return err
		}
		n.srv.Store(srv)
		err = f.Run(ctx)
		switch {
		case err == nil || ctx.Err() != nil:
			// Promotion stopped the loop, and the node serves as the primary
			// until shutdown; or shutdown stopped it.
			<-ctx.Done()
			return nil
		case errors.Is(err, replica.ErrGap):
			n.log.Warn("quickseld: primary compacted past our watermark; re-bootstrapping from snapshot")
			n.srv.Store(nil)
			if cerr := srv.Close(); cerr != nil {
				n.log.Warn("quickseld: close before re-bootstrap", slog.Any("error", cerr))
			}
			if werr := n.wipeLocalState(); werr != nil {
				n.log.Error("quickseld: wipe stale follower state", slog.Any("error", werr))
				return werr
			}
		default:
			// Run only returns ErrGap, a context error, or nil; anything
			// else is a bug.
			n.log.Error("quickseld: replication fetch loop failed", slog.Any("error", err))
			return err
		}
	}
	return nil
}

// Close closes the server Run built, if any: it flushes, trains (on a
// primary) and persists the final snapshot, so a clean restart replays a
// minimal log suffix. Call it once Run has returned.
func (n *Node) Close() error {
	srv := n.srv.Load()
	if srv == nil {
		return nil
	}
	if err := srv.Close(); err != nil {
		return err
	}
	n.log.Info("quickseld: final checkpoint",
		slog.Uint64("covered_seq", srv.reg.LastCovered()),
		slog.Uint64("last_seq", srv.reg.ReplicationResume()-1))
	return nil
}

// bootstrapIfEmpty fetches the primary's snapshot when this follower has no
// local state yet (first boot, or after a gap wipe). With local state — a
// snapshot file or a non-empty log directory — it resumes from that
// instead: the fetch loop's watermark picks up exactly where the local log
// ends.
func (n *Node) bootstrapIfEmpty(ctx context.Context) error {
	if _, err := os.Stat(n.cfg.SnapshotPath); err == nil {
		return nil
	} else if !os.IsNotExist(err) {
		return err
	}
	if entries, err := os.ReadDir(n.cfg.WALDir); err == nil && len(entries) > 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	data, found, err := replica.FetchSnapshot(ctx, n.fetch.Client, n.cfg.PrimaryURL)
	if err != nil {
		return err
	}
	if !found {
		n.log.Info("quickseld: primary has no snapshot configured; starting empty and tailing from seq 1")
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(n.cfg.SnapshotPath), 0o755); err != nil {
		return err
	}
	if err := WriteFileDurable(n.cfg.SnapshotPath, data); err != nil {
		return err
	}
	n.log.Info("quickseld: bootstrapped from primary snapshot", slog.Int("bytes", len(data)))
	return nil
}

// wipeLocalState removes the follower's snapshot and log after the primary
// compacted past them: the state is stale beyond repair and the next loop
// iteration re-bootstraps from a fresh snapshot.
func (n *Node) wipeLocalState() error {
	if err := os.Remove(n.cfg.SnapshotPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	_ = os.Remove(n.cfg.SnapshotPath + ".corrupt")
	return os.RemoveAll(n.cfg.WALDir)
}
