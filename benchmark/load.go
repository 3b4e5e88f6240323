package main

// The load workload: closed-loop clients drive the unfixed Broadleaf
// model's customer flow against minidb through internal/workload, the
// path behind the paper's Figs. 10-11. One op is one successful API call
// including the retries its deadlock aborts cost.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"weseer/internal/apps"
	"weseer/internal/concolic"
	"weseer/internal/minidb"
	"weseer/internal/workload"
)

const (
	loadApp        = "broadleaf"
	loadMaxRetries = 50
	loadBackoff    = time.Millisecond
	// The database keeps every order, so the resident set grows with the
	// calls made; peak_rss_mb is read when this many have succeeded.
	loadRSSAtCall = 30_000
)

type loadWorkload struct {
	cfg  *config
	db   *minidb.DB
	flow workload.Flow

	// The traced half's account, for layers.
	mem0   memUse
	calls  []float64
	res    workload.Result
	before minidb.Stats
	after  minidb.Stats
}

// open builds a fresh application and database. The clients' ids, and
// with them the customers they register, repeat from one workload.Run to
// the next, so every stretch needs a database of its own.
func (w *loadWorkload) open() error {
	app, err := apps.Open(loadApp, apps.Options{})
	if err != nil {
		return err
	}
	wl, ok := app.(apps.Workloader)
	if !ok {
		return fmt.Errorf("app %s has no workload flow", loadApp)
	}
	w.db, w.flow = app.DB(), wl.Flow()
	return nil
}

func (w *loadWorkload) setup() error {
	if err := w.open(); err != nil {
		return err
	}
	if warm := w.drive(w.cfg.size.loadWarmup, nil); warm.failed > 0 {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	return w.open()
}

// clientLog is one client goroutine's record; only that goroutine writes
// it while the run lasts.
type clientLog struct {
	walls  []float64
	failed int
}

// drive runs the clients for d and returns what they completed.
func (w *loadWorkload) drive(d time.Duration, tr *tracer) runStats {
	var mu sync.Mutex
	var logs []*clientLog
	var opIDs int
	var done atomic.Int64
	var rssMB float64
	flow := func(id int64, rng *rand.Rand) func() workload.Step {
		next := w.flow(id, rng)
		log := &clientLog{}
		mu.Lock()
		logs = append(logs, log)
		mu.Unlock()
		return func() workload.Step {
			step := next()
			attempts, t0 := 0, time.Time{}
			opID, opSpan, endOp := -1, -1, func() {}
			return func(e *concolic.Engine) (string, error) {
				if attempts == 0 {
					t0 = time.Now()
					if tr != nil {
						mu.Lock()
						opIDs++
						opID = opIDs
						mu.Unlock()
						opSpan, endOp = tr.start("op", -1, opID)
					}
				}
				attempts++
				var name string
				var err error
				tr.timed("workload.attempt", opSpan, opID, func() { name, err = step(e) })
				switch {
				case err == nil:
					log.walls = append(log.walls, time.Since(t0).Seconds())
					endOp()
					if done.Add(1) == loadRSSAtCall {
						_, rssMB = selfUsage() // read by drive after the clients have stopped
					}
				case attempts > loadMaxRetries:
					log.failed++
					endOp()
				}
				return name, err
			}
		}
	}
	w.before = w.db.StatsSnapshot()
	t0 := time.Now()
	w.res = workload.Run(workload.Config{
		Clients: procs(), Duration: d, MaxRetries: loadMaxRetries, RetryBackoff: loadBackoff, Seed: w.cfg.seed,
	}, w.db, flow)
	rs := runStats{wallS: time.Since(t0).Seconds(), peakRSSMB: rssMB}
	w.after = w.db.StatsSnapshot()
	for _, l := range logs {
		rs.walls = append(rs.walls, l.walls...)
		rs.failed += l.failed
	}
	rs.attempted = len(rs.walls) + rs.failed
	if rs.failed > 0 {
		rs.firstErr = fmt.Errorf("%d API calls still failed after %d retries", rs.failed, loadMaxRetries)
	}
	return rs
}

func (w *loadWorkload) run(d time.Duration, tr *tracer) runStats {
	// The clients cannot be paused for the reference sampler, so it runs
	// in a burst on either side of the stretch.
	w.cfg.ref.burst()
	defer w.cfg.ref.burst()
	if tr == nil {
		return inProcess(func() runStats { return w.drive(d, nil) })
	}
	// The clients cannot alternate between traced and untraced calls, so
	// the traced run drives an untraced half, then a traced half on a
	// fresh database.
	plain := w.drive(d/2, nil)
	if err := w.open(); err != nil {
		return runStats{attempted: 1, failed: 1, firstErr: err}
	}
	w.mem0 = readMemUse()
	rs := w.drive(d/2, tr)
	w.calls = rs.walls
	rs.plain = plain.walls
	rs.attempted += plain.attempted
	rs.failed += plain.failed
	if rs.firstErr == nil {
		rs.firstErr = plain.firstErr
	}
	return rs
}

func (w *loadWorkload) probes(*tracer, map[string]float64) error { return nil }

func (w *loadWorkload) layers(_ []span, m map[string]float64) {
	kops := float64(len(w.calls)) / 1000
	secs := w.res.Duration.Seconds()
	m["workload.api_wall_s.p99"] = percentile(w.calls, 0.99)
	m["workload.retries_per_kop"] = ratio(float64(w.res.Retries), kops)
	m["minidb.deadlocks_per_kop"] = ratio(float64(w.after.Deadlocks-w.before.Deadlocks), kops)
	m["minidb.lock_waits_per_kop"] = ratio(float64(w.after.LockWaits-w.before.LockWaits), kops)
	m["minidb.statements_per_s"] = ratio(float64(w.after.Statements-w.before.Statements), secs)
	m["minidb.aborts_per_s"] = ratio(float64(w.after.Aborts-w.before.Aborts), secs)
	memLayers(w.mem0, len(w.calls), m)
}

func (w *loadWorkload) close() error { return nil }
