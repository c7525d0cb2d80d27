"""Self-test for tools/validate_json.py against the fixtures in
tools/testdata/validate/ (docs/static_analysis.md).

snapshot.json is a telemetry snapshot that satisfies the top-level series
of tools/metrics_schema.json and its `server` profile; matrix.json is a
deterministic 2 x 2 matrix report with one unsupported cell; and
batch_scaling.json is a batch_scaling report. Each rejected case applies
one mutation to a valid fixture, one per check family, and names the
message the rejection must carry; a mutation must raise that error alone.
--profile on a report and --min-* on a snapshot are usage errors (exit 2).

Run directly (python3 tests/validate_test.py) or through ctest
(validate_selftest).
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
VALIDATE = ROOT / "tools" / "validate_json.py"
FIXTURES = ROOT / "tools" / "testdata" / "validate"


def histogram(doc: dict, name: str) -> dict:
    return next(h for h in doc["metrics"]["histograms"] if h["name"] == name)


def bump_bucket(doc: dict) -> None:
    histogram(doc, "qerror")["buckets"][0]["count"] += 1


def drop_overflow_bucket(doc: dict) -> None:
    histogram(doc, "qerror")["buckets"].pop()


def zero_nonzero_counter(doc: dict) -> None:
    for row in doc["metrics"]["counters"]:
        if row["name"] == "estimate.queries":
            row["value"] = 0


def time_deterministic_cell(doc: dict) -> None:
    doc["cells"][0]["usec_per_query"] = 1.5


# (name, fixture, mutation or None, extra args, exit status, message)
CASES = [
    ("snapshot", "snapshot.json", None, [], 0, "OK"),
    ("snapshot_server_profile", "snapshot.json", None,
     ["--profile=server"], 0, "OK"),
    ("matrix", "matrix.json", None,
     ["--min-estimators", "2", "--min-families", "2"], 0, "OK"),
    ("batch_scaling", "batch_scaling.json", None, [], 0, "OK"),
    ("bucket_sum", "snapshot.json", bump_bucket, [], 1,
     "bucket counts sum to 3 but count is 2"),
    ("missing_overflow_bucket", "snapshot.json", drop_overflow_bucket, [], 1,
     "expected '+Inf' (overflow bucket)"),
    ("dead_nonzero_counter", "snapshot.json", zero_nonzero_counter, [], 1,
     "counter 'estimate.queries' must be > 0 (got 0)"),
    ("unknown_profile", "snapshot.json", None, ["--profile=nosuch"], 1,
     "unknown profile 'nosuch'"),
    ("deterministic_timing", "matrix.json", time_deterministic_cell, [], 1,
     "deterministic reports must zero all timings"),
    ("min_families_shortfall", "matrix.json", None,
     ["--min-families", "3"], 1, "only 2 family(ies) have ok cells"),
    ("min_estimators_non_matrix", "batch_scaling.json", None,
     ["--min-estimators", "1"], 1,
     "--min-estimators/--min-families only apply to matrix reports"),
    ("profile_on_report", "matrix.json", None, ["--profile=server"], 2,
     "--profile only applies to telemetry snapshots"),
    ("min_families_on_snapshot", "snapshot.json", None,
     ["--min-families", "1"], 2,
     "--min-estimators/--min-families only apply to matrix reports"),
]


def materialize(tmp: pathlib.Path, fixture: str, mutate) -> pathlib.Path:
    """The fixture path, or a mutated copy of it under `tmp`."""
    path = FIXTURES / fixture
    if mutate is None:
        return path
    doc = json.loads(path.read_text())
    mutate(doc)
    out = tmp / f"{mutate.__name__}_{fixture}"
    out.write_text(json.dumps(doc))
    return out


def run(script: pathlib.Path, path: pathlib.Path, args: list):
    return subprocess.run([sys.executable, str(script), str(path)] + args,
                          capture_output=True, text=True)


class ValidateSelfTest(unittest.TestCase):
    def test_cases(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, fixture, mutate, args, status, message in CASES:
                with self.subTest(name):
                    path = materialize(pathlib.Path(tmp), fixture, mutate)
                    proc = run(VALIDATE, path, args)
                    out = proc.stdout + proc.stderr
                    self.assertEqual(proc.returncode, status, out)
                    self.assertIn(message, out)
                    if mutate is not None:
                        errors = [l for l in proc.stdout.splitlines()
                                  if l.startswith("error:")]
                        self.assertEqual(len(errors), 1, out)


if __name__ == "__main__":
    unittest.main()
