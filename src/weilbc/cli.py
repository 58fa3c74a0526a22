"""Batch verification driver.

Example:
    weil-verify star --p 3 --base-degree 1 --n 1 --m 2 --pairs 1:1 \\
        --psi-scale 1 --sample all --seed 42 --ambient-cap 64 --format json

Exit code 0 iff every case in the report verifies.
"""

from __future__ import annotations

import argparse
import sys

from .checks import CHECK_NAMES, RunConfig, run_check
from .errors import ConfigInvalid, WeilbcError
from .fieldtower import ENUM_CAP
from .normmap import DEFAULT_AMBIENT_CAP


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="weil-verify",
        description="Exact verification of base-change identities for Weil representations",
    )
    ap.add_argument("check", choices=CHECK_NAMES, help="which verification to run")
    ap.add_argument("--p", type=int, default=3, help="odd prime characteristic")
    ap.add_argument("--base-degree", type=int, default=1, help="degree of F_q over F_p")
    ap.add_argument("--n", type=int, default=1, help="half-dimension of the symplectic space")
    ap.add_argument("--m", type=int, default=2, help="degree of F' over F_q")
    ap.add_argument(
        "--pairs",
        type=str,
        default="",
        help="comma-separated i:t twist pairs, e.g. '1:1,2:2'; default: every i with minimal t",
    )
    ap.add_argument("--psi-scale", type=int, default=1, help="index (from 1) of the scaling a in F_q^x")
    ap.add_argument("--sample", type=str, default="200", help="sample size per case family, or 'all'")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--ambient-cap", type=int, default=DEFAULT_AMBIENT_CAP,
                    help="largest allowed ambient level (q-degrees)")
    ap.add_argument("--enum-cap", type=int, default=ENUM_CAP, help="largest enumerable group order")
    ap.add_argument("--format", dest="fmt", choices=("json", "tsv"), default="json")
    ap.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")
    return ap


def parse_pairs(text: str) -> tuple:
    if not text.strip():
        return ()
    out = []
    for tok in text.split(","):
        try:
            i_s, t_s = tok.strip().split(":")
            out.append((int(i_s), int(t_s)))
        except ValueError:
            raise ConfigInvalid(f"--pairs takes comma-separated i:t integer pairs, got {tok.strip()!r}") from None
    return tuple(out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    sample: object = args.sample
    if sample != "all":
        try:
            sample = int(sample)
        except ValueError:
            print(f"error: --sample must be an integer or 'all', got {args.sample!r}", file=sys.stderr)
            return 2
    try:
        cfg = RunConfig(
            p=args.p,
            base_degree=args.base_degree,
            n=args.n,
            m=args.m,
            pairs=parse_pairs(args.pairs),
            psi_scale=args.psi_scale,
            sample=sample,
            seed=args.seed,
            ambient_cap=args.ambient_cap,
            enum_cap=args.enum_cap,
        )
        report = run_check(args.check, cfg)
    except WeilbcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    text = report.to_json() if args.fmt == "json" else report.to_tsv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"{report.check}: pass={report.n_pass} fail={report.n_fail} skip={len(report.skipped)}"
              f" ({report.seconds:.1f}s) -> {args.out}")
    else:
        print(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
