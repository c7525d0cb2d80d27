#ifndef QFCARD_OBS_SNAPSHOT_H_
#define QFCARD_OBS_SNAPSHOT_H_

#include <string>

namespace qfcard::obs {

/// One JSON document capturing the full telemetry state: the metrics
/// registry (counters/gauges/histograms), the global q-error drift monitor,
/// and trace-buffer occupancy. This is what `qfcard_cli --metrics-out`
/// writes and what tools/validate_json.py checks against
/// tools/metrics_schema.json in CI. Shape documented in
/// docs/observability.md.
std::string SnapshotJson();

/// Writes SnapshotJson() to `path`; false on I/O failure.
bool WriteSnapshotJson(const std::string& path);

/// Prometheus text exposition of the metrics registry plus the drift
/// monitor rendered as gauges (qfcard_drift_p95, qfcard_drift_degraded, ...).
std::string SnapshotPrometheus();

}  // namespace qfcard::obs

#endif  // QFCARD_OBS_SNAPSHOT_H_
