package artifact

import "auditherm/internal/obs"

// Per-tier storage instrumentation on the obs Default registry: hit,
// miss, eviction and byte traffic for each backend tier, so a
// dashboard shows at a glance where warm reads are being served from
// and whether eviction or remote verification is churning.
var (
	memHitsTotal = obs.NewCounter("auditherm_artifact_mem_hits_total",
		"In-memory hot-tier byte-cache hits (no filesystem touched).")
	memMissesTotal = obs.NewCounter("auditherm_artifact_mem_misses_total",
		"In-memory hot-tier byte-cache misses.")
	memEvictionsTotal = obs.NewCounter("auditherm_artifact_mem_evictions_total",
		"Artifacts evicted from the in-memory hot tier to hold its byte cap.")
	memBytes = obs.NewGauge("auditherm_artifact_mem_bytes",
		"Bytes currently held by the in-memory hot tier.")

	valueHitsTotal = obs.NewCounter("auditherm_artifact_value_hits_total",
		"Decoded-value cache hits (artifact served without re-decoding JSON).")
	valueMissesTotal = obs.NewCounter("auditherm_artifact_value_misses_total",
		"Decoded-value cache misses.")

	localHitsTotal = obs.NewCounter("auditherm_artifact_local_hits_total",
		"Local sharded-store stats that found the artifact on disk.")
	localMissesTotal = obs.NewCounter("auditherm_artifact_local_misses_total",
		"Local sharded-store stats that missed.")
	localEvictionsTotal = obs.NewCounter("auditherm_artifact_local_evictions_total",
		"Artifacts evicted from the local store to hold its byte budget.")
	localEvictedBytesTotal = obs.NewCounter("auditherm_artifact_local_evicted_bytes_total",
		"Bytes reclaimed by local-store eviction.")
	localPutBytesTotal = obs.NewCounter("auditherm_artifact_local_put_bytes_total",
		"Bytes written to the local sharded store.")
	localDedupedPutsTotal = obs.NewCounter("auditherm_artifact_local_deduped_puts_total",
		"Puts satisfied by an already-present artifact file that checked out against its digest trailer (write skipped).")
	localTornTotal = obs.NewCounter("auditherm_artifact_local_torn_total",
		"Torn local artifacts (short, or not matching their digest trailer) found on read and unlinked; each reads as a miss.")
	localBytes = obs.NewGauge("auditherm_artifact_local_bytes",
		"Bytes currently accounted in the local store's eviction index (budgeted stores only).")
	sweepOrphansTotal = obs.NewCounter("auditherm_artifact_sweep_orphans_total",
		"Stale temp files removed by the background orphan sweep.")

	remoteHitsTotal = obs.NewCounter("auditherm_artifact_remote_hits_total",
		"Remote-backend reads/stats that found the artifact.")
	remoteMissesTotal = obs.NewCounter("auditherm_artifact_remote_misses_total",
		"Remote-backend reads/stats that missed (404).")
	remoteFetchBytesTotal = obs.NewCounter("auditherm_artifact_remote_fetch_bytes_total",
		"Verified artifact bytes fetched from the remote backend.")
	remotePutBytesTotal = obs.NewCounter("auditherm_artifact_remote_put_bytes_total",
		"Artifact bytes uploaded to the remote backend.")
	remoteVerifyFailuresTotal = obs.NewCounter("auditherm_artifact_remote_verify_failures_total",
		"Remote reads rejected because the bytes did not hash to the content digest the server sent.")
	remoteCoalescedTotal = obs.NewCounter("auditherm_artifact_remote_coalesced_total",
		"Remote fetches that joined an identical in-flight request (singleflight).")

	promotionsTotal = obs.NewCounter("auditherm_artifact_promotions_total",
		"Lower-tier hits promoted into hotter tiers by the read-through stack.")

	artifactRequestsTotal = obs.NewCounter("auditherm_artifact_server_requests_total",
		"Requests accepted by the /v1/artifacts endpoint (after auth and key validation).")
	artifactServedBytesTotal = obs.NewCounter("auditherm_artifact_server_served_bytes_total",
		"Artifact bytes served by the /v1/artifacts endpoint.")
	artifactReceivedBytesTotal = obs.NewCounter("auditherm_artifact_server_received_bytes_total",
		"Artifact bytes stored via PUT /v1/artifacts.")
	artifactRejectedPutsTotal = obs.NewCounter("auditherm_artifact_server_rejected_puts_total",
		"PUTs rejected because the body did not hash to the client's content header.")
	artifactAuthFailuresTotal = obs.NewCounter("auditherm_artifact_server_auth_failures_total",
		"Artifact-endpoint requests rejected for a missing or invalid bearer token.")
)
