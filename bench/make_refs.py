"""Record or check the reference outputs in bench/references.json.

    python3 bench/make_refs.py                 # check current outputs against the file
    python3 bench/make_refs.py --full          # ... including the full-size grid
    python3 bench/make_refs.py --write [--full] # record them again

References are per size ("standard" and the smoke test's "tiny") and per
input variant: the sha256 of the grid's results.csv, and acc/ece/nll of
every eval op.  ``--full`` covers configs/benchmark.ini as shipped (6000
steps, 5 seeds; a few minutes), whose results.csv hash lets a change prove
bit-identity in one line.  Re-recording is a behaviour change: say so.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import sys

import run  # first: pins the BLAS threads before NumPy is imported


def observe(lib: run.Lib, refs: dict, sizes: dict[str, list[int]]) -> dict:
    observed: dict = {}
    for size, variants in sizes.items():
        for cls in (run.Grid, run.Eval):
            for variant in variants:
                work = run.WORK_ROOT / f"refs-{cls.name}-{size}-{variant}"
                work.mkdir(parents=True, exist_ok=True)
                try:
                    wl = cls(lib, size, variant, refs, work)
                    wl.setup()
                    _, _, out = wl.run_pass()
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                observed.setdefault(size, {}).setdefault(cls.name, {})[str(variant)] = out
                print(f"{size} {cls.name} variant {variant}: observed", file=sys.stderr)
    return observed


def observe_full(lib: run.Lib) -> dict:
    config = run.ROOT / "configs" / "benchmark.ini"
    out = run.WORK_ROOT / "refs-full"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(["suite", "--config", str(config), "--out-dir", str(out)])
        if code != 0:
            raise RuntimeError(f"full-size suite exit code {code}")
        return {"config_sha256": run.sha256_file(config),
                "results_csv_sha256": run.sha256_file(out / "results.csv")}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="record instead of checking")
    parser.add_argument("--full", action="store_true", help="include configs/benchmark.ini")
    args = parser.parse_args(argv)

    lib = run.Lib()
    recorded = json.loads(run.REFS_PATH.read_text()) if run.REFS_PATH.is_file() else {}
    observed = observe(lib, recorded, {"standard": list(range(run.VARIANTS)), "tiny": [0]})
    if args.full:
        observed["full_benchmark_ini"] = observe_full(lib)

    if args.write:
        text = json.dumps({**recorded, **observed}, indent=1, sort_keys=True)
        # One line per eval op: [acc, ece, nll].
        text = re.sub(r"\[\s+([^\[\]]+?)\s+\]",
                      lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]", text)
        run.REFS_PATH.write_text(text + "\n")
        print(f"wrote {run.REFS_PATH.relative_to(run.ROOT)}")
        return 0
    mismatches = 0
    for key in sorted(observed):
        same = observed[key] == recorded.get(key)
        mismatches += not same
        print(f"{key}: {'MATCH' if same else 'MISMATCH'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
