"""Smoke test of the benchmark harness itself, at a tiny size.

    python3 bench/smoke.py

Runs every workload once untraced and once traced at the "tiny" size (40
steps, one suite seed, one pass; `verify` has no smaller size whose checks
pass), and asserts that:

* the last stdout line has exactly the keys correct/attempted/failed/metrics;
* every metric named in BENCHMARK.json prints, with its unit, and no other;
* every end-to-end value is positive, and every output check passes;
* a corrupted reference (grid hash, one eval value) is reported as a failure;
* without the bayeslora sources the harness exits non-zero and prints no result.

Takes about a minute.  Not collected by pytest, so it does not slow tier-1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_work" / "smoke"


def bench(workload: str, trace: int, refs: Path | None = None, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / BENCH.name / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result(workload: str, trace: int, refs: Path | None = None) -> dict:
    proc = bench(workload, trace, refs)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exit {proc.returncode}: {proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"], sorted(last)
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    return last


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for w in spec["workloads"]:
            name = w["name"]
            for trace, units in ((0, e2e), (1, layer)):
                out = result(name, trace)
                assert out["correct"] and out["failed"] == 0, (name, trace, out)
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                assert got == units, (name, trace, set(got) ^ set(units))
                if trace == 0:
                    assert all(v["value"] > 0 for v in out["metrics"].values()), out
                print(f"smoke: {name} trace={trace} ok ({out['attempted']} ops)")

        refs = json.loads((BENCH / "references.json").read_text())
        refs["tiny"]["grid"]["0"] = "0" * 64
        key = sorted(refs["tiny"]["eval"]["0"])[0]
        refs["tiny"]["eval"]["0"][key][1] += 1e-12
        corrupted = SCRATCH / "references.json"
        corrupted.write_text(json.dumps(refs))
        for name, failed in (("grid", 1), ("eval", 1)):
            out = result(name, 0, corrupted)
            assert not out["correct"] and out["failed"] == failed, (name, out)
            print(f"smoke: {name} corrupted reference reported as {out['failed']} failed op")

        bare = SCRATCH / "bare"
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("grid", 0, cwd=bare)
        assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)
        print(f"smoke: without sources the harness exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
