#!/usr/bin/env python3
"""Self-test for trend.py's direction-aware regression gate.

Builds synthetic BENCH_*.json reports in temp directories, aggregates a
baseline, then checks:

  1. a >10% p99 latency INCREASE fails the gate even when the MBps row
     in the same report IMPROVED (the masking case the gate exists for),
  2. changes within the threshold pass,
  3. a legacy (untagged, MBps-unit) bandwidth drop still fails,
  4. tracked-only rows (direction "") never gate,
  5. --identical passes on identical runs and fails on any changed value,
     any row or report missing on either side, or a changed report field.

Run: test_trend_gate.py [path/to/trend.py]. Exit 0 = all cases pass.
"""

import json
import os
import subprocess
import sys
import tempfile

TREND = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "trend.py")


def write_report(directory, bench, unit, rows):
    with open(os.path.join(directory, f"BENCH_{bench}.json"), "w") as f:
        json.dump({"bench": bench, "schema_version": 2, "unit": unit,
                   "rows": rows}, f)


def run_trend(directory, baseline=None, identical=None):
    cmd = [sys.executable, TREND, "--dir", directory]
    if baseline:
        cmd += ["--baseline", baseline]
    if identical:
        cmd += ["--identical", identical]
    p = subprocess.run(cmd, capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def fsynclat_rows(mbps, p50, p99):
    return [
        {"series": "fsync", "label": "plain", "value": mbps,
         "unit": "MBps", "direction": "up"},
        {"series": "fsync-lat.p50", "label": "plain", "value": p50,
         "unit": "ns", "direction": ""},
        {"series": "fsync-lat.p99", "label": "plain", "value": p99,
         "unit": "ns", "direction": "down"},
    ]


def main():
    failures = []

    def check(name, ok, detail=""):
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        if not ok:
            failures.append((name, detail))

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        os.mkdir(base_dir)
        write_report(base_dir, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=100.0, p50=50_000, p99=200_000))
        write_report(base_dir, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 500.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ])
        rc, out = run_trend(base_dir)
        check("baseline aggregates", rc == 0, out)
        baseline = os.path.join(base_dir, "BENCH_TREND.json")

        # 1. p99 +50% while the bandwidth row improved: must FAIL.
        cur = os.path.join(tmp, "lat_regress")
        os.mkdir(cur)
        write_report(cur, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=150.0, p50=50_000, p99=300_000))
        write_report(cur, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 500.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ])
        rc, out = run_trend(cur, baseline)
        check("p99 increase fails despite MBps improvement",
              rc == 2 and "fsync-lat.p99" in out, out)

        # 2. everything within threshold: must PASS.
        cur = os.path.join(tmp, "within")
        os.mkdir(cur)
        write_report(cur, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=95.0, p50=52_000, p99=205_000))
        write_report(cur, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 480.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ])
        rc, out = run_trend(cur, baseline)
        check("within-threshold changes pass", rc == 0, out)

        # 3. legacy untagged MBps drop: must FAIL (back-compat).
        cur = os.path.join(tmp, "bw_regress")
        os.mkdir(cur)
        write_report(cur, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=100.0, p50=50_000, p99=200_000))
        write_report(cur, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 300.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ])
        rc, out = run_trend(cur, baseline)
        check("legacy MBps drop fails", rc == 2 and "legacy/Bento" in out,
              out)

        # 4. tracked-only p50 doubling (direction "") + scaling-series
        #    drop: neither gates; must PASS.
        cur = os.path.join(tmp, "tracked_only")
        os.mkdir(cur)
        write_report(cur, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=100.0, p50=120_000, p99=200_000))
        write_report(cur, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 500.0},
            {"series": "Bento-scaling", "label": "seq", "value": 1.0},
        ])
        rc, out = run_trend(cur, baseline)
        check("tracked-only rows never gate", rc == 0, out)

        # TREND.md marks gated columns.
        with open(os.path.join(cur, "TREND.md")) as f:
            md = f.read()
        check("TREND.md marks gated series",
              "fsync-lat.p99 [ns]*" in md and "fsync-lat.p50 [ns] " in md.replace("|", " "),
              md)

        # 5. --identical: exact agreement with another run's directory.
        def identical_run(name, fsync_rows, legacy_rows, extra=None):
            d = os.path.join(tmp, name)
            os.mkdir(d)
            write_report(d, "fsynclat", "ops/s", fsync_rows)
            write_report(d, "legacy", "MBps", legacy_rows)
            if extra:
                write_report(d, *extra)
            return d

        legacy = [
            {"series": "Bento", "label": "seq", "value": 500.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ]
        ref = identical_run("ident_ref", fsynclat_rows(100.0, 50_000, 200_000),
                            legacy)
        same = identical_run("ident_same",
                             fsynclat_rows(100.0, 50_000, 200_000), legacy)
        rc, out = run_trend(same, identical=ref)
        check("identical runs pass --identical", rc == 0, out)

        # A tracked-only p50 that moved by one ns still differs.
        cur = identical_run("ident_value",
                            fsynclat_rows(100.0, 50_001, 200_000), legacy)
        rc, out = run_trend(cur, identical=ref)
        check("--identical fails on a changed tracked-only value",
              rc == 2 and "fsynclat/fsync-lat.p50/plain" in out, out)

        cur = identical_run("ident_row_gone",
                            fsynclat_rows(100.0, 50_000, 200_000), legacy[:1])
        rc, out = run_trend(cur, identical=ref)
        check("--identical fails on a row missing from DIR",
              rc == 2 and "legacy/Bento-scaling/seq: row missing from DIR"
              in out, out)
        rc, out = run_trend(ref, identical=cur)
        check("--identical fails on a row missing from OTHER_DIR",
              rc == 2 and "row missing from OTHER_DIR" in out, out)

        cur = identical_run("ident_extra_report",
                            fsynclat_rows(100.0, 50_000, 200_000), legacy,
                            extra=("table4", "ops/s", []))
        rc, out = run_trend(cur, identical=ref)
        check("--identical fails on a report missing from OTHER_DIR",
              rc == 2 and "table4: report missing from OTHER_DIR" in out,
              out)

        cur = identical_run("ident_unit", fsynclat_rows(100.0, 50_000,
                                                        200_000), legacy)
        write_report(cur, "legacy", "ops/s", legacy)
        rc, out = run_trend(cur, identical=ref)
        check("--identical fails on a changed report field",
              rc == 2 and "legacy: field 'unit'" in out, out)

    if failures:
        for name, detail in failures:
            print(f"--- {name} ---\n{detail}", file=sys.stderr)
        return 1
    print("test_trend_gate.py: all cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
