package main

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"quicksel/internal/obs"
	"quicksel/internal/replica"
	"quicksel/internal/server"
	"quicksel/internal/wal"
)

// runFollower drives the follower lifecycle: bootstrap local state from the
// primary's snapshot (when there is none yet), build the serving registry,
// and tail the primary's WAL until one of three things happens:
//
//   - stop closes (daemon shutdown): stop the fetch loop and return; main
//     closes the server.
//   - the fetch loop stops cleanly (the promote hook fired): return with
//     the server still serving — as the primary now.
//   - the fetch loop reports a compaction gap (the primary compacted past
//     our watermark): close the server, wipe the stale local state, and
//     loop back into a fresh snapshot bootstrap. The boot-gate handler is
//     swapped back in for the duration, so probes see an honest 503.
func runFollower(cfg server.Config, v flagValues, logger *slog.Logger,
	handler *atomic.Pointer[http.Handler], slot *atomic.Pointer[server.Server], stop <-chan struct{}) {
	client := &http.Client{Timeout: v.replPollWait + 15*time.Second}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := bootstrapIfEmpty(client, cfg, v, logger); err != nil {
			logger.Warn("quickseld: snapshot bootstrap failed; retrying", slog.Any("error", err))
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Second):
			}
			continue
		}
		srv, err := server.New(cfg)
		if err != nil {
			logger.Error("quickseld: follower startup", slog.Any("error", err))
			os.Exit(1)
		}
		reg := srv.Registry()
		f, err := replica.NewFetcher(replica.Config{
			PrimaryURL: v.primaryURL,
			FollowerID: v.nodeID,
			Resume:     reg.ReplicationResume,
			Apply: func(recs []wal.Record, _ uint64) error {
				return reg.Replicate(recs)
			},
			Client:     client,
			PollWait:   v.replPollWait,
			BackoffMin: v.replBackoffMin,
			BackoffMax: v.replBackoffMax,
			Logger:     obs.Component(cfg.Logger, "replica"),
		})
		if err != nil {
			logger.Error("quickseld: follower startup", slog.Any("error", err))
			os.Exit(1)
		}
		reg.SetReplicationStatus(f.Stats)
		// Promotion sequence: stop the fetch loop first (no record may be
		// applied after the flip), then promote the registry.
		srv.SetPromoteHook(func() (bool, error) {
			f.Stop()
			return reg.Promote()
		})
		slot.Store(srv)
		real := http.Handler(srv)
		handler.Store(&real)

		errCh := make(chan error, 1)
		go func() { errCh <- f.Run(context.Background()) }()
		select {
		case <-stop:
			f.Stop()
			return
		case err := <-errCh:
			if err == nil {
				// The promote hook stopped the loop; the server keeps serving
				// as the primary.
				return
			}
			if errors.Is(err, replica.ErrGap) {
				logger.Warn("quickseld: primary compacted past our watermark; re-bootstrapping from snapshot")
				boot := newBootHandler()
				handler.Store(&boot)
				slot.Store(nil)
				if cerr := srv.Close(); cerr != nil {
					logger.Warn("quickseld: close before re-bootstrap", slog.Any("error", cerr))
				}
				if werr := wipeLocalState(cfg); werr != nil {
					logger.Error("quickseld: wipe stale follower state", slog.Any("error", werr))
					os.Exit(1)
				}
				continue
			}
			// Run only returns ErrGap, a context error (we pass Background),
			// or nil; anything else is a bug worth dying loudly over.
			logger.Error("quickseld: replication fetch loop failed", slog.Any("error", err))
			os.Exit(1)
		}
	}
}

// bootstrapIfEmpty fetches the primary's snapshot when this follower has no
// local state yet (first boot, or after a gap wipe). With local state — a
// snapshot file or a non-empty log directory — it resumes from that
// instead: the fetch loop's watermark picks up exactly where the local log
// ends.
func bootstrapIfEmpty(client *http.Client, cfg server.Config, v flagValues, logger *slog.Logger) error {
	if _, err := os.Stat(cfg.SnapshotPath); err == nil {
		return nil
	} else if !os.IsNotExist(err) {
		return err
	}
	if entries, err := os.ReadDir(cfg.WALDir); err == nil && len(entries) > 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	data, found, err := replica.FetchSnapshot(ctx, client, v.primaryURL)
	if err != nil {
		return err
	}
	if !found {
		logger.Info("quickseld: primary has no snapshot configured; starting empty and tailing from seq 1")
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(cfg.SnapshotPath), 0o755); err != nil {
		return err
	}
	if err := server.WriteFileDurable(cfg.SnapshotPath, data); err != nil {
		return err
	}
	logger.Info("quickseld: bootstrapped from primary snapshot", slog.Int("bytes", len(data)))
	return nil
}

// wipeLocalState removes the follower's snapshot and log after the primary
// compacted past them: the state is stale beyond repair and the next loop
// iteration re-bootstraps from a fresh snapshot.
func wipeLocalState(cfg server.Config) error {
	if err := os.Remove(cfg.SnapshotPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	_ = os.Remove(cfg.SnapshotPath + ".corrupt")
	return os.RemoveAll(cfg.WALDir)
}
