package par

import "auditherm/internal/obs"

// Worker-pool instrumentation on the obs Default registry. Counters
// cost one atomic op per parallel batch / claimed task; the serial
// fast path (resolved workers <= 1) touches no metrics at all, so
// instrumentation never taxes single-threaded runs.
var (
	tasksTotal = obs.NewCounter("auditherm_par_tasks_total",
		"Tasks dispatched to parallel batches (serial fast-path excluded).")
	batchesTotal = obs.NewCounter("auditherm_par_batches_total",
		"Parallel batches executed (ForEach invocations that went parallel).")
	queueDepth = obs.NewGauge("auditherm_par_queue_depth",
		"Tasks currently enqueued and not yet claimed by a worker.")
	workersBusy = obs.NewGauge("auditherm_par_workers_busy",
		"Worker goroutines currently live inside parallel batches.")
	workerBusySeconds = obs.NewHistogram("auditherm_par_worker_busy_seconds",
		"Per-worker busy time per parallel batch, in seconds.", obs.DurationBuckets)
)
