#!/usr/bin/env python3
"""Perf-regression gate for the wf-bench artifacts.

Compares every ``BENCH_*.json`` in a baseline directory against a fresh
run in a current directory:

* Keys ending in ``_wall_us`` are wall-clock timings and get a one-sided
  tolerance: the gate fails only when the current value exceeds
  ``baseline * (1 + tolerance)`` AND the absolute growth exceeds
  ``--floor-us`` (tiny benches jitter wildly in relative terms, so a
  percentage alone would flap).
* Every other leaf — counts, simulated time, seeds, the whole embedded
  ``metrics`` snapshot — is deterministic by design and must match the
  baseline exactly. A drift there is a behaviour change, not noise, and
  the fix is either a code fix or a deliberate baseline regeneration.
* An artifact that carries ``naive_wall_us``, ``batch_wall_us`` and
  ``speedup_floor_milli`` additionally promises a throughput ratio: the
  gate fails when ``batch_wall_us * speedup_floor_milli >
  naive_wall_us * 1000``, i.e. when the optimized path dips below the
  declared multiple of the reference path *in the current run*. Unlike
  the per-key tolerance this compares two timings from the same machine
  and run, so it holds regardless of how fast the CI host is.

With ``--diff-verdict FILE`` (repeatable) the gate additionally consumes
``wfsm diff --format json`` outputs: each file must carry a ``verdict``
of ``ok`` — ``changed`` or ``regressed`` fails the gate, with the diff's
own stage/counter attribution echoed into the failure list.

With ``--expect`` the gate also pins the artifact set: every listed
name must exist in both directories, and any ``BENCH_*.json`` found in
either directory but not listed fails the gate. Without an explicit
list, an artifact that CI forgets to re-run compares against its own
stale copy and silently passes — the list turns "forgot to gate it"
into a hard failure. Non-bench files (e.g. a stale ``results.json``)
are ignored either way.

Exit codes: 0 clean, 1 regression/drift found, 2 usage or I/O error.

Usage:
    python3 tools/bench_gate.py --baseline artifacts-baseline --current artifacts \
        --expect BENCH_serving.json,BENCH_profile.json
"""

import argparse
import json
import sys
from pathlib import Path

WALL_SUFFIX = "_wall_us"


def walk(path, base, cur, failures, tolerance, floor_us):
    """Recursively diff ``cur`` against ``base``, appending failure strings."""
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(base):
            if key not in cur:
                failures.append(f"{path}.{key}: missing from current run")
            else:
                walk(f"{path}.{key}", base[key], cur[key], failures, tolerance, floor_us)
        for key in sorted(set(cur) - set(base)):
            failures.append(
                f"{path}.{key}: new key absent from baseline "
                f"(regenerate the baseline artifact if intentional)"
            )
        return
    if isinstance(base, list) and isinstance(cur, list):
        if len(base) != len(cur):
            failures.append(f"{path}: length {len(base)} -> {len(cur)}")
            return
        for i, (b, c) in enumerate(zip(base, cur)):
            walk(f"{path}[{i}]", b, c, failures, tolerance, floor_us)
        return

    leaf = path.rsplit(".", 1)[-1]
    if leaf.endswith(WALL_SUFFIX):
        if not isinstance(base, (int, float)) or not isinstance(cur, (int, float)):
            failures.append(f"{path}: timing must be numeric, got {base!r} -> {cur!r}")
        elif cur > base * (1.0 + tolerance) and cur - base > floor_us:
            failures.append(
                f"{path}: {base} us -> {cur} us "
                f"(+{100.0 * (cur - base) / max(base, 1):.0f}%, "
                f"tolerance {100.0 * tolerance:.0f}% + {floor_us} us floor)"
            )
        return
    if base != cur:
        failures.append(
            f"{path}: deterministic value drifted: {base!r} -> {cur!r} "
            f"(regenerate the baseline artifact if intentional)"
        )


def check_speedup_floor(name, cur, failures):
    """Enforces an artifact's self-declared speedup floor, if present."""
    if not isinstance(cur, dict):
        return
    keys = ("naive_wall_us", "batch_wall_us", "speedup_floor_milli")
    if not all(isinstance(cur.get(k), (int, float)) for k in keys):
        return
    naive_us = cur["naive_wall_us"]
    batch_us = cur["batch_wall_us"]
    floor_milli = cur["speedup_floor_milli"]
    if batch_us * floor_milli > naive_us * 1000:
        actual_milli = naive_us * 1000 / max(batch_us, 1)
        failures.append(
            f"{name}: speedup floor violated: naive {naive_us} us / batch {batch_us} us "
            f"= {actual_milli:.0f} milli-x < declared floor {floor_milli} milli-x"
        )


def check_diff_verdict(path, failures):
    """Consumes one ``wfsm diff --format json`` artifact: verdict must be ok."""
    try:
        diff = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        failures.append(f"{path}: cannot read diff verdict: {err}")
        return
    verdict = diff.get("verdict") if isinstance(diff, dict) else None
    if verdict == "ok":
        return
    if verdict not in ("changed", "regressed"):
        failures.append(f"{path}: not a wfsm diff artifact (verdict {verdict!r})")
        return
    failures.append(f"{path}: run diff verdict is {verdict!r} (want 'ok')")
    for stage in diff.get("stages", []):
        failures.append(
            f"{path}: stage {stage.get('path')!r} self "
            f"{stage.get('self_ms_a')}ms -> {stage.get('self_ms_b')}ms "
            f"({stage.get('delta_ms'):+}ms)"
        )
    for section in ("counters", "gauges", "histograms"):
        for delta in diff.get(section, []):
            failures.append(
                f"{path}: {section[:-1]} {delta.get('name')!r} "
                f"{delta.get('a')} -> {delta.get('b')}"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="directory of checked-in BENCH_*.json")
    parser.add_argument("--current", required=True, help="directory of freshly produced BENCH_*.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="allowed relative wall-clock growth (2.0 = 3x baseline; CI machines vary)",
    )
    parser.add_argument(
        "--floor-us",
        type=int,
        default=20000,
        help="absolute growth in microseconds a timing must also exceed to fail",
    )
    parser.add_argument(
        "--expect",
        action="append",
        default=None,
        metavar="NAMES",
        help="comma-separated BENCH_*.json names that must be gated (repeatable); "
        "any artifact in either directory but not listed fails the gate",
    )
    parser.add_argument(
        "--diff-verdict",
        action="append",
        default=None,
        metavar="FILE",
        help="wfsm diff --format json output that must report verdict 'ok' (repeatable)",
    )
    args = parser.parse_args()

    baseline_dir = Path(args.baseline)
    current_dir = Path(args.current)
    for d in (baseline_dir, current_dir):
        if not d.is_dir():
            print(f"bench gate: not a directory: {d}", file=sys.stderr)
            return 2

    expected = None
    if args.expect:
        expected = sorted({n for group in args.expect for n in group.split(",") if n})
        if not expected:
            print("bench gate: --expect given but names to expect are empty", file=sys.stderr)
            return 2

    names = sorted(p.name for p in baseline_dir.glob("BENCH_*.json"))
    if not names:
        print(f"bench gate: no BENCH_*.json baselines in {baseline_dir}", file=sys.stderr)
        return 2

    failures = []
    if expected is not None:
        for name in expected:
            if name not in names:
                failures.append(
                    f"{name}: expected artifact has no checked-in baseline in {baseline_dir}"
                )
        for stray in names:
            if stray not in expected:
                failures.append(
                    f"{stray}: baseline artifact has no matching gate rule "
                    f"(add it to --expect or delete the artifact)"
                )
        names = [name for name in expected if name in names]

    for name in names:
        cur_path = current_dir / name
        if not cur_path.is_file():
            failures.append(f"{name}: bench artifact not produced by current run")
            continue
        try:
            base = json.loads((baseline_dir / name).read_text())
            cur = json.loads(cur_path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench gate: cannot read {name}: {err}", file=sys.stderr)
            return 2
        walk(name, base, cur, failures, args.tolerance, args.floor_us)
        check_speedup_floor(name, cur, failures)

    for verdict_path in args.diff_verdict or []:
        check_diff_verdict(verdict_path, failures)

    for extra in sorted(p.name for p in current_dir.glob("BENCH_*.json")):
        if expected is not None and extra not in expected:
            failures.append(
                f"{extra}: produced by current run but has no matching gate rule "
                f"(add it to --expect or stop producing it)"
            )
        elif extra not in names:
            failures.append(
                f"{extra}: produced by current run but has no checked-in baseline "
                f"(copy it into {baseline_dir} to adopt it)"
            )

    if failures:
        print(f"bench gate: {len(failures)} regression(s) across {len(names)} artifact(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"bench gate: OK ({len(names)} artifact(s) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
