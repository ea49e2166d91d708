"""Command line entry point.

    blowup-lab run CONFIG [--out DIR] [--kind KIND] [--override sec.key=val ...]

Runs the experiment described by the INI file and writes deterministic
artifacts into the output directory: `report.json` (sorted keys), one CSV
per recorded table, the canonical effective configuration, and a
`MANIFEST.txt` with SHA-256 digests.  Nothing in the output depends on
wall clock, hostname, or thread count, so reruns are byte-identical.

Exit codes: 0 run completed and all checks passed; 1 run completed but a
check failed; 2 configuration or usage error, including an unreadable
config file, a grid too narrow for the kind's spectral decompositions or
too coarse for its narrowest kernel, an output path through a file and
an output directory that holds a non-file named like an artifact; 3
numerical failure, including any ValueError a run raises after
validation.  Codes 2 and 3 write nothing.

BLAS/OpenMP thread counts are pinned to 1 before numpy is first imported
(unless the caller already set them), since reduction order varies with
thread count and would break reproducibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_threads() -> None:
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")


def _build_parser() -> argparse.ArgumentParser:
    from .config import EXPERIMENT_KINDS

    parser = argparse.ArgumentParser(
        prog="blowup-lab",
        description="Numerical lab for profile-tracking blow-up in a perturbed "
        "semilinear heat equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from an INI config")
    run.add_argument("config", help="path to the INI configuration file")
    run.add_argument("--out", default="results", help="output directory (default: results)")
    run.add_argument(
        "--kind",
        default=None,
        help=f"override [experiment] kind ({', '.join(EXPERIMENT_KINDS)})",
    )
    run.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="SEC.KEY=VALUE",
        help="override a config value; repeatable",
    )
    return parser


def _json_default(obj):
    import numpy as np

    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_artifacts(out_dir: Path, cfg: dict, report: dict, tables: dict) -> None:
    from .config import config_hash, config_text

    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, bytes] = {}
    files["report.json"] = (
        json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    ).encode()
    files["config.txt"] = config_text(cfg).encode()
    for name, (header, rows) in sorted(tables.items()):
        lines = [",".join(str(h) for h in header)]
        lines.extend(",".join(str(cell) for cell in row) for row in rows)
        files[f"{name}.csv"] = ("\n".join(lines) + "\n").encode()

    manifest = [f"config {config_hash(cfg)}"]
    for name in sorted(files):
        digest = hashlib.sha256(files[name]).hexdigest()
        manifest.append(f"{digest}  {name}")
    files["MANIFEST.txt"] = ("\n".join(manifest) + "\n").encode()

    for name, blob in files.items():
        (out_dir / name).write_bytes(blob)


def main(argv: list[str] | None = None) -> int:
    _pin_threads()
    parser = _build_parser()
    args = parser.parse_args(argv)

    from .config import ConfigError, apply_overrides, load_config, validate_config

    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.override)
        if args.kind is not None:
            apply_overrides(cfg, [f"experiment.kind={args.kind}"])
        run = validate_config(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    if any(path.exists() and not path.is_dir() for path in (out_dir, *out_dir.parents)):
        print(f"usage error: --out {out_dir} is, or lies under, a file", file=sys.stderr)
        return 2
    # an entry named like an artifact (each table is a .csv) must be a file
    artifacts = ("report.json", "config.txt", "MANIFEST.txt")
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        if (path.name in artifacts or path.suffix == ".csv") and not path.is_file():
            print(f"usage error: --out {out_dir} holds {path.name}, which is not a file",
                  file=sys.stderr)
            return 2

    from .experiments import run_experiment

    print(f"running {run.kind} ...")
    try:
        report, tables, ok = run_experiment(run)
    except (FloatingPointError, RuntimeError, ValueError) as err:
        # RuntimeError covers solver divergence; a ValueError that survives
        # config validation is a numerical failure of the run as well
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3

    _write_artifacts(out_dir, cfg, report, tables)
    n_files = len(tables) + 3
    print(f"wrote {n_files} files to {out_dir}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
