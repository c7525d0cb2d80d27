#!/usr/bin/env python3
"""Validate a qfcard JSON document: a BENCH_*.json report or a telemetry snapshot.

The document says what it is. A top-level "kind" key marks a trajectory
report — written by `bench_matrix --benchmark_out=PATH` (kind "matrix",
from eval::MatrixRunner), `bench_batch_scaling --benchmark_out=PATH` (kind
"batch_scaling") or `bench_data_drift --stream-out=PATH` (kind
"drift_stream") — checked against tools/bench_schema.json. Anything else is
a telemetry snapshot — written by `--metrics-out=PATH` or
obs::WriteSnapshotJson: metrics registry + drift-monitor state + trace-buffer
stats — checked against tools/metrics_schema.json. --schema overrides the
schema file in both cases.

Snapshot checks, in order:
  1. structural — top-level keys, version, counter/gauge/histogram row shapes,
     every histogram's buckets end in le="+Inf" and bucket counts sum to the
     histogram count;
  2. schema-required series — counters/gauges/histograms named in the schema
     (or in schema['profiles'][PROFILE] with --profile) exist, optionally
     matched by a labels prefix, e.g. any `backend=` label set;
  3. liveness — 'nonzero' counters have a summed value > 0 and 'min_count'
     histograms have enough observations, so a refactor that silently stops
     recording fails CI instead of shipping dead telemetry.

Report checks, in order:
  1. structural — version, kind, name, the kind's required context keys,
     and the flat metrics rows ({name, unit, value});
  2. kind "matrix" — non-empty estimator/family axes, every cell carries
     estimator/family/a valid status, ok cells carry the q-error quantile
     block (mean/p50/p90/p95/p99/max, finite, >= 0) plus usec_per_query and
     train_seconds; deterministic reports must record threads=0 and zeroed
     timings (the byte-identity contract across QFCARD_THREADS);
  3. coverage — with --min-estimators/--min-families, enough distinct
     estimators and families have at least one ok cell, so a sweep that
     silently degrades to errors fails CI instead of shipping a hollow
     report.

--profile applies to snapshots only and --min-estimators/--min-families to
matrix reports only: --profile on a report or --min-* on a snapshot is a
usage error, --min-* on a non-matrix report a violation.

Stdlib only (json/argparse) — no third-party packages.

Exit status: 0 valid, 1 with one "error: ..." line per violation, 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

NUMERIC = (int, float)
TOOLS = pathlib.Path(__file__).resolve().parent


class Checker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def require(self, cond: bool, msg: str) -> bool:
        if not cond:
            self.errors.append(msg)
        return cond


def is_num(v) -> bool:
    return isinstance(v, NUMERIC) and not isinstance(v, bool) and \
        math.isfinite(v)


def load(path: str, what: str):
    try:
        return json.loads(pathlib.Path(path).read_text("utf-8"))
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot parse {what} {path}: {e}")


# ---------------------------------------------------------------------------
# Telemetry snapshots
# ---------------------------------------------------------------------------

def check_snapshot_structure(snap: dict, chk: Checker) -> None:
    for key in ("version", "metrics", "drift_monitor", "trace"):
        if not chk.require(key in snap, f"missing top-level key '{key}'"):
            return
    chk.require(snap["version"] == 1,
                f"unsupported snapshot version {snap['version']!r}")
    metrics = snap["metrics"]
    if not chk.require(isinstance(metrics, dict), "'metrics' is not an object"):
        return
    for section in ("counters", "gauges", "histograms"):
        rows = metrics.get(section)
        if not chk.require(isinstance(rows, list),
                           f"metrics.{section} is not an array"):
            continue
        for i, row in enumerate(rows):
            where = f"metrics.{section}[{i}]"
            if not chk.require(isinstance(row, dict), f"{where} not an object"):
                continue
            chk.require(isinstance(row.get("name"), str),
                        f"{where} missing string 'name'")
            chk.require(isinstance(row.get("labels"), str),
                        f"{where} missing string 'labels'")
            if section in ("counters", "gauges"):
                chk.require(isinstance(row.get("value"), NUMERIC),
                            f"{where} missing numeric 'value'")
            else:
                check_histogram_row(row, where, chk)


def check_histogram_row(row: dict, where: str, chk: Checker) -> None:
    for field in ("count", "sum", "mean", "max", "p50", "p90", "p95"):
        chk.require(isinstance(row.get(field), NUMERIC),
                    f"{where} missing numeric '{field}'")
    buckets = row.get("buckets")
    if not chk.require(isinstance(buckets, list) and buckets,
                       f"{where} missing non-empty 'buckets'"):
        return
    last_le = None
    total = 0
    for j, b in enumerate(buckets):
        bw = f"{where}.buckets[{j}]"
        if not chk.require(isinstance(b, dict), f"{bw} not an object"):
            return
        chk.require(isinstance(b.get("count"), int) and b["count"] >= 0,
                    f"{bw} missing non-negative integer 'count'")
        total += b.get("count", 0) if isinstance(b.get("count"), int) else 0
        last_le = b.get("le")
    chk.require(last_le == "+Inf",
                f"{where} last bucket le is {last_le!r}, expected '+Inf' "
                "(overflow bucket)")
    if isinstance(row.get("count"), int):
        chk.require(total == row["count"],
                    f"{where} bucket counts sum to {total} but count is "
                    f"{row['count']}")


def rows_named(rows: list, name: str, labels_prefix: str = "") -> list:
    return [r for r in rows
            if isinstance(r, dict) and r.get("name") == name
            and str(r.get("labels", "")).startswith(labels_prefix)]


def check_snapshot_schema(snap: dict, schema: dict, chk: Checker) -> None:
    metrics = snap.get("metrics", {})
    counters = metrics.get("counters", [])
    histograms = metrics.get("histograms", [])

    cschema = schema.get("counters", {})
    for name in cschema.get("required", []):
        chk.require(bool(rows_named(counters, name)),
                    f"required counter '{name}' missing")
    for name in cschema.get("nonzero", []):
        rows = rows_named(counters, name)
        total = sum(r.get("value", 0) for r in rows)
        chk.require(bool(rows) and total > 0,
                    f"counter '{name}' must be > 0 (got {total}) — "
                    "instrumentation went dead?")

    gauges = metrics.get("gauges", [])
    for name in schema.get("gauges", {}).get("required", []):
        chk.require(bool(rows_named(gauges, name)),
                    f"required gauge '{name}' missing")

    for spec in schema.get("histograms", {}).get("required", []):
        name = spec["name"]
        prefix = spec.get("labels_prefix", "")
        rows = rows_named(histograms, name, prefix)
        label = f"'{name}'" + (f" with labels '{prefix}*'" if prefix else "")
        if not chk.require(bool(rows), f"required histogram {label} missing"):
            continue
        min_count = spec.get("min_count", 0)
        best = max(r.get("count", 0) for r in rows)
        chk.require(best >= min_count,
                    f"histogram {label} has max count {best}, expected >= "
                    f"{min_count}")

    dschema = schema.get("drift_monitor", {})
    drift = snap.get("drift_monitor", {})
    if chk.require(isinstance(drift, dict), "'drift_monitor' is not an object"):
        for field in dschema.get("required_fields", []):
            chk.require(field in drift, f"drift_monitor missing '{field}'")
        if "degraded" in drift:
            chk.require(isinstance(drift["degraded"], bool),
                        "drift_monitor.degraded is not a boolean")
        min_obs = dschema.get("min_observed", 0)
        chk.require(drift.get("observed", 0) >= min_obs,
                    f"drift_monitor.observed = {drift.get('observed')!r}, "
                    f"expected >= {min_obs} (did the q-error feed go dead?)")

    tschema = schema.get("trace", {})
    trace = snap.get("trace", {})
    if chk.require(isinstance(trace, dict), "'trace' is not an object"):
        for field in tschema.get("required_fields", []):
            chk.require(isinstance(trace.get(field), int),
                        f"trace missing integer '{field}'")
        if all(isinstance(trace.get(k), int) for k in ("recorded", "dropped")):
            chk.require(trace["dropped"] <= trace["recorded"],
                        "trace.dropped exceeds trace.recorded")


# ---------------------------------------------------------------------------
# Trajectory reports
# ---------------------------------------------------------------------------

def check_report_structure(report: dict, schema: dict,
                           chk: Checker) -> dict | None:
    for key in ("version", "kind", "name", "context", "metrics"):
        if not chk.require(key in report, f"missing top-level key '{key}'"):
            return None
    chk.require(report["version"] == schema.get("version", 1),
                f"unsupported report version {report['version']!r}")
    kinds = schema.get("kinds", {})
    kind = report["kind"]
    if not chk.require(kind in kinds,
                       f"unknown report kind {kind!r} (schema defines: "
                       f"{', '.join(sorted(kinds))})"):
        return None
    kschema = kinds[kind]
    context = report["context"]
    if chk.require(isinstance(context, dict), "'context' is not an object"):
        for key in kschema.get("required_context", []):
            chk.require(key in context, f"context missing '{key}'")
    metrics = report["metrics"]
    if chk.require(isinstance(metrics, list), "'metrics' is not an array"):
        names = set()
        for i, row in enumerate(metrics):
            where = f"metrics[{i}]"
            if not chk.require(isinstance(row, dict), f"{where} not an object"):
                continue
            for field in schema.get("metric_required", []):
                chk.require(field in row, f"{where} missing '{field}'")
            if isinstance(row.get("name"), str):
                names.add(row["name"])
            chk.require(is_num(row.get("value")),
                        f"{where} 'value' is not a finite number")
        for name in kschema.get("required_metrics", []):
            chk.require(name in names, f"required metric '{name}' missing")
    return kschema


def check_matrix(report: dict, kschema: dict, chk: Checker) -> None:
    for key in kschema.get("required_lists", []):
        items = report.get(key)
        chk.require(isinstance(items, list) and items and
                    all(isinstance(s, str) for s in items),
                    f"'{key}' is not a non-empty string array")
    cells = report.get("cells")
    if not chk.require(isinstance(cells, list) and cells,
                       "'cells' is not a non-empty array"):
        return
    deterministic = bool(report.get("context", {}).get("deterministic"))
    if deterministic:
        chk.require(report.get("context", {}).get("threads") == 0,
                    "deterministic report must record context.threads = 0")
    statuses = set(kschema.get("cell_statuses", []))
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not chk.require(isinstance(cell, dict), f"{where} not an object"):
            continue
        for field in kschema.get("cell_required", []):
            chk.require(field in cell, f"{where} missing '{field}'")
        status = cell.get("status")
        if not chk.require(status in statuses,
                           f"{where} status {status!r} not in "
                           f"{sorted(statuses)}"):
            continue
        if status != "ok":
            continue
        for field in kschema.get("cell_ok_required", []):
            chk.require(field in cell, f"{where} (ok) missing '{field}'")
        qerror = cell.get("qerror")
        if chk.require(isinstance(qerror, dict),
                       f"{where} 'qerror' is not an object"):
            for field in kschema.get("qerror_required", []):
                v = qerror.get(field)
                chk.require(is_num(v) and v >= 0,
                            f"{where} qerror.{field} is not a finite "
                            "non-negative number")
        for field in ("train_seconds", "usec_per_query"):
            v = cell.get(field)
            if not chk.require(is_num(v) and v >= 0,
                               f"{where} {field} is not a finite "
                               "non-negative number"):
                continue
            if deterministic:
                chk.require(v == 0,
                            f"{where} {field} = {v} but deterministic "
                            "reports must zero all timings")


def check_coverage(report: dict, min_estimators: int, min_families: int,
                   chk: Checker) -> None:
    ok_estimators = set()
    ok_families = set()
    for cell in report.get("cells", []):
        if isinstance(cell, dict) and cell.get("status") == "ok":
            ok_estimators.add(cell.get("estimator"))
            ok_families.add(cell.get("family"))
    chk.require(len(ok_estimators) >= min_estimators,
                f"only {len(ok_estimators)} estimator(s) have ok cells, "
                f"expected >= {min_estimators}")
    chk.require(len(ok_families) >= min_families,
                f"only {len(ok_families)} family(ies) have ok cells, "
                f"expected >= {min_families}")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("document",
                        help="JSON file from --metrics-out, --benchmark_out "
                             "or --stream-out")
    parser.add_argument("--schema", default=None,
                        help="schema file (default: tools/bench_schema.json "
                             "for reports, tools/metrics_schema.json for "
                             "snapshots)")
    parser.add_argument("--profile", default=None,
                        help="snapshots: validate the required series of "
                             "schema['profiles'][PROFILE] instead of the "
                             "top-level ones (structural checks always run); "
                             "e.g. --profile=server for the qfcard_server "
                             "smoke snapshot")
    parser.add_argument("--min-estimators", type=int, default=None,
                        help="matrix reports: minimum distinct estimators "
                             "with at least one ok cell")
    parser.add_argument("--min-families", type=int, default=None,
                        help="matrix reports: minimum distinct families "
                             "with at least one ok cell")
    args = parser.parse_args(argv)

    doc = load(args.document, "document")
    is_report = isinstance(doc, dict) and "kind" in doc
    if is_report and args.profile is not None:
        parser.error("--profile only applies to telemetry snapshots")
    if not is_report and (args.min_estimators is not None
                          or args.min_families is not None):
        parser.error("--min-estimators/--min-families only apply to matrix "
                     "reports")
    schema_path = args.schema or str(
        TOOLS / ("bench_schema.json" if is_report else "metrics_schema.json"))
    schema = load(schema_path, "schema")

    chk = Checker()
    if is_report:
        kschema = check_report_structure(doc, schema, chk)
        if kschema is not None and doc.get("kind") == "matrix":
            check_matrix(doc, kschema, chk)
            check_coverage(doc, args.min_estimators or 0,
                           args.min_families or 0, chk)
        elif args.min_estimators or args.min_families:
            chk.require(doc.get("kind") == "matrix",
                        "--min-estimators/--min-families only apply to "
                        "matrix reports")
    else:
        if args.profile is not None:
            profiles = schema.get("profiles", {})
            if args.profile not in profiles:
                known = ", ".join(k for k in sorted(profiles)
                                  if k != "_comment")
                print(f"error: unknown profile '{args.profile}' "
                      f"(schema defines: {known or 'none'})", file=sys.stderr)
                return 1
            schema = profiles[args.profile]
        if chk.require(isinstance(doc, dict), "snapshot is not a JSON object"):
            check_snapshot_structure(doc, chk)
            check_snapshot_schema(doc, schema, chk)

    for msg in chk.errors:
        print(f"error: {msg}")
    if chk.errors:
        print(f"validate_json: {len(chk.errors)} violation(s) in "
              f"{args.document}", file=sys.stderr)
        return 1
    if is_report:
        print(f"validate_json: OK ({args.document}: kind={doc.get('kind')}, "
              f"{len(doc.get('cells', []))} cells, "
              f"{len(doc.get('metrics', []))} metrics)")
    else:
        metrics = doc.get("metrics", {})
        print(f"validate_json: OK ({args.document}: "
              f"{len(metrics.get('counters', []))} counters, "
              f"{len(metrics.get('histograms', []))} histograms)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
