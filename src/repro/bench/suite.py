"""Unified benchmark suite runner — one entrypoint for every benchmark.

``python -m repro.bench.suite --quick`` executes each benchmark's
canonical point (batching, contention, read_scaling, shard_scaling,
recovery, micro_ops), stamps the result with config/seed/git metadata,
and writes one strict-JSON ``BENCH_<name>.json`` per benchmark at the
repo root (gitignored scratch; ``results/`` stays the curated artifact
directory).  Against a committed baseline under
``benchmarks/baselines/`` every numeric metric is compared with a
per-metric tolerance band; ``--check`` turns any out-of-band metric,
missing baseline, or structurally invalid result into a non-zero exit
for the CI perf-trajectory lane.  ``--update-baselines`` re-stamps the
baselines from the current run (review the diff before committing).

The simulated benchmarks are deterministic given their seeds, so their
bands are drift *allowances* for intentional code changes, not noise
margins — an unexplained band trip means the change moved the protocol's
measured behaviour and either the change or the baseline must be fixed.
``micro_ops`` measures real wall-clock: its raw microsecond figures get
bands wide enough for machine variance, and only the depth-flatness
ratio is held to a meaningful one.

Each ``BENCH_<name>.json`` carries::

    {
      "bench": "batching", "schema": 1, "quick": true, "seed": 0,
      "config": {...},            # the knobs the point was run with
      "git":    {commit, branch, dirty},
      "metrics": {...},           # flat numeric metric -> value
      "profile": {...} | null     # repro.obs.profile report (phase
    }                             #   attribution + queueing), if traced
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import pathlib
import subprocess
from dataclasses import dataclass
from typing import Iterable, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_BENCH_DIR = REPO_ROOT / "benchmarks"
DEFAULT_BASELINE_DIR = DEFAULT_BENCH_DIR / "baselines"
DEFAULT_OUT_DIR = REPO_ROOT

SCHEMA = 1

#: attribution must sum to end-to-end within 1% (ISSUE-9 acceptance)
ATTRIBUTION_ERROR_MAX = 0.01

#: suite name -> (module stem under benchmarks/, canonical callable)
BENCHES: dict[str, tuple[str, str]] = {
    "batching": ("bench_batching", "canonical_point"),
    "contention": ("bench_batching", "canonical_contention_point"),
    "read_scaling": ("bench_read_scaling", "canonical_point"),
    "shard_scaling": ("bench_shard_scaling", "canonical_point"),
    "recovery": ("bench_recovery", "canonical_point"),
    "micro_ops": ("bench_micro_ops", "canonical_point"),
    "realtime": ("bench_realtime", "canonical_point"),
}

#: benches measuring real elapsed time on the wall-clock runtime.  They
#: are excluded from the default sweep (the sim perf-trajectory lane
#: must stay deterministic) and run via ``--only`` in the CI realtime
#: lane; their envelopes carry ``runtime: "wall"`` and are only ever
#: compared against wall baselines.
WALL_BENCHES: frozenset[str] = frozenset({"realtime"})


@dataclass(frozen=True)
class Tol:
    """Tolerance band: pass iff |current - baseline| <= rel*|baseline| + abs."""

    rel: float = 0.15
    abs: float = 1e-9


DEFAULT_TOL = Tol()

#: per-bench, per-metric overrides; "*" is the bench-wide default.
#: Counters sampled over a few simulated seconds (aborts, salvages) get
#: absolute floors so a handful of events can't trip a relative band.
TOLERANCES: dict[str, dict[str, Tol]] = {
    "batching": {
        "update_p50_ms": Tol(rel=0.25),
        "update_p95_ms": Tol(rel=0.25),
        "read_p95_ms": Tol(rel=0.25),
        "abort_rate": Tol(rel=0.5, abs=0.01),
    },
    "contention": {
        "update_p50_ms": Tol(rel=0.25),
        "update_p95_ms": Tol(rel=0.25),
        "abort_rate": Tol(rel=0.5, abs=0.01),
        "certification_aborts": Tol(rel=0.5, abs=3.0),
        "salvaged_total": Tol(rel=0.5, abs=3.0),
        "salvage_rejects": Tol(rel=1.0, abs=3.0),
        "deferred_ww_total": Tol(rel=0.5, abs=3.0),
        "batch_window": Tol(rel=0.5, abs=1e-3),
    },
    "read_scaling": {
        "read_p95_ms": Tol(rel=0.25),
        "update_p95_ms": Tol(rel=0.25),
        "admission_queued": Tol(rel=0.5, abs=5.0),
    },
    "shard_scaling": {
        "update_rt_ms": Tol(rel=0.25),
        "abort_rate": Tol(rel=0.5, abs=0.01),
        # the partitioned workload must never attempt a cross-shard write
        "rejected_cross_shard_writes": Tol(rel=0.0, abs=0.0),
    },
    "recovery": {
        "delta_recovery_seconds": Tol(rel=0.25, abs=0.05),
        "full_recovery_seconds": Tol(rel=0.25, abs=0.05),
    },
    "micro_ops": {
        # raw microseconds are machine-dependent: informational only,
        # the band exists to catch order-of-magnitude implementation
        # regressions.  The flatness *ratio* is machine-robust and is
        # the metric this bench actually defends.
        "*": Tol(rel=9.0, abs=10.0),
        "indexed_flatness_256_over_1": Tol(rel=1.0, abs=1.0),
    },
    "realtime": {
        # genuine wall-clock numbers on shared CI hardware: very wide
        # timing-noise bands.  The bench defends liveness (non-zero
        # throughput, bounded aborts), not a latency trajectory.
        "*": Tol(rel=3.0, abs=50.0),
        "abort_rate": Tol(rel=1.0, abs=0.25),
    },
}

_MODULES: dict[str, object] = {}


def _load_bench_module(stem: str, bench_dir: pathlib.Path):
    """Import ``benchmarks/<stem>.py`` by file path (it is not a package)."""
    path = bench_dir / f"{stem}.py"
    key = str(path)
    if key in _MODULES:
        return _MODULES[key]
    spec = importlib.util.spec_from_file_location(f"_repro_suite_{stem}", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _MODULES[key] = module
    return module


def git_meta(repo: pathlib.Path = REPO_ROOT) -> dict:
    """Best-effort git stamp; all-None outside a working checkout."""

    def _git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *args],
                cwd=repo,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "branch": _git("rev-parse", "--abbrev-ref", "HEAD"),
        "dirty": bool(status) if status is not None else None,
    }


def run_bench(
    name: str,
    quick: bool = True,
    bench_dir: pathlib.Path = DEFAULT_BENCH_DIR,
) -> dict:
    """Run one canonical point and wrap it in the BENCH json envelope."""
    stem, fn_name = BENCHES[name]
    module = _load_bench_module(stem, bench_dir)
    payload = getattr(module, fn_name)(quick=quick)
    config = dict(payload.get("config", {}))
    return {
        "bench": name,
        "schema": SCHEMA,
        "quick": bool(quick),
        "seed": config.get("seed"),
        "config": config,
        "git": git_meta(),
        # which clock produced the numbers; wall results never compare
        # against sim baselines (compare_result enforces this)
        "runtime": payload.get("runtime", "sim"),
        "metrics": dict(payload.get("metrics", {})),
        "profile": payload.get("profile"),
    }


def _is_number(value) -> bool:
    """Finite number: NaN/inf metrics are unusable for band comparison."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_result(result: dict) -> list[str]:
    """Structural checks: strict JSON + phase-attribution integrity."""
    errors = []
    try:
        json.dumps(result, allow_nan=False)
    except (TypeError, ValueError) as exc:
        errors.append(f"not strict JSON: {exc}")
    for key in ("bench", "schema", "quick", "config", "git", "metrics"):
        if key not in result:
            errors.append(f"missing key {key!r}")
    if not any(_is_number(v) for v in (result.get("metrics") or {}).values()):
        errors.append("no numeric metrics")
    profile = result.get("profile")
    if profile is not None:
        attributed = False
        for group in ("updates", "reads"):
            stats = profile.get(group)
            if not stats or not stats.get("n"):
                continue
            if not stats.get("phases"):
                errors.append(f"{group}: no phase attribution")
                continue
            attributed = True
            err = stats.get("max_attribution_error")
            if err is None or err > ATTRIBUTION_ERROR_MAX:
                errors.append(
                    f"{group}: attribution error {err!r} exceeds "
                    f"{ATTRIBUTION_ERROR_MAX}"
                )
        if not attributed:
            errors.append("profile present but no attributed group")
    return errors


def compare_result(name: str, result: dict, baseline: dict) -> list[dict]:
    """Per-metric tolerance-band comparison against a baseline envelope."""
    if bool(baseline.get("quick")) != bool(result.get("quick")):
        return [
            {
                "metric": None,
                "kind": "mode_mismatch",
                "baseline": baseline.get("quick"),
                "current": result.get("quick"),
            }
        ]
    # sim seconds and wall seconds are different units; a baseline from
    # one runtime must never band-check a result from the other
    if baseline.get("runtime", "sim") != result.get("runtime", "sim"):
        return [
            {
                "metric": None,
                "kind": "runtime_mismatch",
                "baseline": baseline.get("runtime", "sim"),
                "current": result.get("runtime", "sim"),
            }
        ]
    violations = []
    tols = TOLERANCES.get(name, {})
    default = tols.get("*", DEFAULT_TOL)
    current = result.get("metrics") or {}
    for metric in sorted(baseline.get("metrics") or {}):
        base = baseline["metrics"][metric]
        if not _is_number(base):
            continue
        cur = current.get(metric)
        if not _is_number(cur):
            violations.append(
                {
                    "metric": metric,
                    "kind": "missing",
                    "baseline": base,
                    "current": cur,
                }
            )
            continue
        tol = tols.get(metric, default)
        band = tol.rel * abs(base) + tol.abs
        if abs(cur - base) > band:
            violations.append(
                {
                    "metric": metric,
                    "kind": "out_of_band",
                    "baseline": base,
                    "current": cur,
                    "band": band,
                    "delta": cur - base,
                }
            )
    return violations


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def run_suite(
    names: Optional[Iterable[str]] = None,
    quick: bool = True,
    out_dir: pathlib.Path = DEFAULT_OUT_DIR,
    bench_dir: pathlib.Path = DEFAULT_BENCH_DIR,
    baseline_dir: pathlib.Path = DEFAULT_BASELINE_DIR,
    update_baselines: bool = False,
    inject_slowdown: Optional[Iterable[str]] = None,
) -> dict:
    """Run the canonical points, emit BENCH files, compare to baselines.

    ``inject_slowdown`` multiplies the named benches' metrics by 10 after
    measurement — the CI negative test proving the bands actually trip.

    Without explicit ``names`` the sweep covers the deterministic sim
    benches only; wall-clock benches (:data:`WALL_BENCHES`) opt in via
    ``names``/``--only`` so the perf-trajectory lane stays reproducible.
    """
    names = list(names) if names else [n for n in BENCHES if n not in WALL_BENCHES]
    inject = set(inject_slowdown or ())
    unknown = [n for n in names if n not in BENCHES] + [
        n for n in inject if n not in BENCHES
    ]
    if unknown:
        raise KeyError(f"unknown bench(es): {sorted(set(unknown))}")
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    for name in names:
        result = run_bench(name, quick=quick, bench_dir=bench_dir)
        if name in inject:
            result["metrics"] = {
                k: v * 10.0 if _is_number(v) else v
                for k, v in result["metrics"].items()
            }
            result["config"]["injected_slowdown"] = 10.0
        out_path = out_dir / f"BENCH_{name}.json"
        out_path.write_text(_dump(result))

        errors = validate_result(result)
        baseline_path = baseline_dir / f"BENCH_{name}.json"
        violations: list[dict] = []
        has_baseline = baseline_path.exists()
        if has_baseline:
            baseline = json.loads(baseline_path.read_text())
            violations = compare_result(name, result, baseline)
        if update_baselines:
            baseline_dir.mkdir(parents=True, exist_ok=True)
            baseline_path.write_text(_dump(result))
        results[name] = {
            "file": str(out_path),
            "errors": errors,
            "baseline": str(baseline_path) if has_baseline else None,
            "violations": violations,
            "metrics": result["metrics"],
        }

    ok = all(
        not entry["errors"] and not entry["violations"]
        for entry in results.values()
    )
    return {"schema": SCHEMA, "quick": quick, "ok": ok, "results": results}


def _render_report(report: dict, strict_baseline: bool) -> tuple[str, bool]:
    """Human-readable summary; second element is the pass/fail verdict."""
    lines = []
    passed = True
    for name, entry in report["results"].items():
        problems = list(entry["errors"])
        for v in entry["violations"]:
            if v["kind"] == "out_of_band":
                problems.append(
                    f"{v['metric']}: {v['current']:.4g} vs baseline "
                    f"{v['baseline']:.4g} (band +/-{v['band']:.4g})"
                )
            elif v["kind"] == "missing":
                problems.append(f"{v['metric']}: missing from current run")
            else:
                problems.append(
                    f"{v['kind']}: baseline={v['baseline']!r} "
                    f"current={v['current']!r}"
                )
        if entry["baseline"] is None:
            note = "no baseline"
            if strict_baseline:
                problems.append("no committed baseline")
        else:
            note = "baseline ok" if not entry["violations"] else "baseline FAIL"
        verdict = "ok" if not problems else "FAIL"
        passed = passed and not problems
        n_metrics = sum(1 for v in entry["metrics"].values() if _is_number(v))
        lines.append(f"{name:<14} {verdict:<5} {n_metrics} metrics  [{note}]")
        lines.extend(f"    - {p}" for p in problems)
    return "\n".join(lines), passed


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.suite",
        description=(
            "Run every benchmark's canonical point, write BENCH_<name>.json "
            "files, and compare them against committed baselines."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short measurement windows (the CI perf-trajectory mode)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(BENCHES),
        help="run a subset (repeatable)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit non-zero on invalid results, band violations, or a "
            "missing committed baseline"
        ),
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="re-stamp benchmarks/baselines/ from this run",
    )
    parser.add_argument(
        "--inject-slowdown",
        action="append",
        metavar="BENCH",
        choices=sorted(BENCHES),
        help="multiply BENCH's metrics x10 after measurement (negative test)",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT_DIR)
    parser.add_argument(
        "--bench-dir", type=pathlib.Path, default=DEFAULT_BENCH_DIR
    )
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path, default=DEFAULT_BASELINE_DIR
    )
    parser.add_argument(
        "--list", action="store_true", help="list bench names and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, (stem, fn) in BENCHES.items():
            print(f"{name:<14} {stem}.{fn}")
        return 0

    # preserve the canonical BENCHES ordering whatever --only order was;
    # wall-clock benches run only when explicitly named with --only
    if args.only is not None:
        names = [n for n in BENCHES if n in args.only]
    else:
        names = [n for n in BENCHES if n not in WALL_BENCHES]
    report = run_suite(
        names,
        quick=args.quick,
        out_dir=args.out,
        bench_dir=args.bench_dir,
        baseline_dir=args.baseline_dir,
        update_baselines=args.update_baselines,
        inject_slowdown=args.inject_slowdown,
    )
    (args.out / "bench_suite_report.json").write_text(_dump(report))
    rendered, passed = _render_report(report, strict_baseline=args.check)
    print(rendered)
    if args.check and not passed:
        print("suite check FAILED")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
