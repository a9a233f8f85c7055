"""Command-line front end: JSON in, JSON out, one master seed.

Subcommands:
  realize         filling + mu  ->  factored realization (M, N_1..N_r, N)
  extract         matrix pair   ->  filling, minor orders, certificate
  roundtrip       seeded realize/extract trials, failure artifacts on disk
  count           number of LR fillings of lambda/mu with content nu
  counterexample  fixed inequivalent pairs sharing one filling

Each command emits a single JSON document, written to --out when given and
to stdout otherwise.  All randomness flows from --seed, which is echoed in
the document, so equal invocations produce byte-identical output.

Exit codes: 0 success, 2 invalid input, 3 verification failure, 4 retries
exhausted.
"""

import argparse
import json
import os
import random
import sys

from .errors import (InputError, LRPairsError, NotInRingError, RankError,
                     RetriesExhaustedError, VerificationError)
from .extract import counterexample_demo, extract_from_pair
from .generic import MatrixPair, genericity_stats, reset_genericity_stats
from .matrix import RMatrix
from .realize import random_filling, realize
from .ring import INFINITY
from .tableaux import MAX_SIZE, Filling, Partition, count_fillings


def _parse_partition(text: str) -> Partition:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        return Partition(tuple(int(p) for p in parts))
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: {exc}")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _load_filling(obj) -> Filling:
    """A filling given as its list of rows or as a filling object."""
    return Filling.from_json({"rows": obj} if isinstance(obj, list) else obj)


def _load_pair(obj) -> MatrixPair:
    """A pair file ({'first','second'}) or a realization file ({'M','N'})."""
    if isinstance(obj, dict) and "first" in obj and "second" in obj:
        return MatrixPair.from_json(obj)
    if isinstance(obj, dict) and "M" in obj and "N" in obj:
        return MatrixPair(RMatrix.from_json(obj["M"]), RMatrix.from_json(obj["N"]))
    raise InputError("input must contain matrices 'first'/'second' or 'M'/'N'")


def _orders_to_json(table) -> dict:
    out = {}
    for (rows, cols), v in sorted(table.items()):
        key = ",".join(map(str, rows)) + "|" + ",".join(map(str, cols))
        out[key] = "inf" if v is INFINITY else v
    return out


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands


def cmd_realize(args) -> int:
    data = _load_json(args.infile)
    if not isinstance(data, dict) or "filling" not in data or "mu" not in data:
        raise InputError("realize input must be an object with 'filling' and 'mu'")
    filling = _load_filling(data["filling"])
    mu = Partition.from_json(data["mu"])
    real = realize(filling, mu, verify=True)
    doc = real.to_json()
    doc["seed"] = args.seed
    doc["verified"] = True
    _emit(doc, args.out)
    return 0


def cmd_extract(args) -> int:
    pair = _load_pair(_load_json(args.infile))
    rng = random.Random(args.seed)
    res = extract_from_pair(pair, rng, max_retries=args.retries)
    doc = {
        "seed": args.seed,
        "filling": res.filling.to_json(),
        "mu": res.mu.to_json(),
        "nu": res.nu.to_json(),
        "lambda": res.lam.to_json(),
        "minor_orders": _orders_to_json(res.certificate.minor_orders),
        "certificate": res.certificate.to_json(),
    }
    _emit(doc, args.out)
    return 0


def cmd_roundtrip(args) -> int:
    if args.rmax > MAX_SIZE:
        raise InputError(f"--rmax {args.rmax} exceeds the limit {MAX_SIZE}")
    if args.rmax < 1 or args.pmax < 1:
        raise InputError(f"--rmax and --pmax must be at least 1, got "
                         f"{args.rmax} and {args.pmax}")
    rng = random.Random(args.seed)
    reset_genericity_stats()
    art_dir = os.path.dirname(args.out) if args.out else "."
    artifacts = []
    passes = 0
    for trial in range(1, args.trials + 1):
        artifact = {"trial": trial, "seed": args.seed}
        try:
            filling, mu, nu, lam = random_filling(rng, args.rmax, args.pmax)
            artifact["mu"] = mu.to_json()
            artifact["filling"] = filling.to_json()
            res = extract_from_pair(realize(filling, mu).pair(), rng,
                                    max_retries=args.retries)
            if res.filling != filling or res.nu != nu or res.lam != lam:
                artifact["error"] = "extraction disagrees with the realized filling"
                artifact["got"] = res.filling.to_json()
            else:
                passes += 1
                continue
        except LRPairsError as exc:
            artifact["error"] = str(exc)
        path = os.path.join(art_dir, f"roundtrip-failure-{trial:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
        artifacts.append(path)
    stats = genericity_stats()
    doc = {
        "seed": args.seed,
        "trials": args.trials,
        "passes": passes,
        "failures": args.trials - passes,
        "artifacts": artifacts,
        "genericity": {"attempts": stats.attempts, "resamples": stats.resamples,
                       "successes": stats.successes},
    }
    _emit(doc, args.out)
    return 0 if passes == args.trials else 3


def cmd_count(args) -> int:
    mu = _parse_partition(args.mu)
    nu = _parse_partition(args.nu)
    lam = _parse_partition(args.lam)
    doc = {
        "seed": args.seed,
        "mu": mu.to_json(),
        "nu": nu.to_json(),
        "lambda": lam.to_json(),
        "count": count_fillings(mu, nu, lam),
    }
    _emit(doc, args.out)
    return 0


def cmd_counterexample(args) -> int:
    doc = counterexample_demo()
    doc["seed"] = args.seed
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrpairs",
        description="Littlewood-Richardson fillings as matrix-pair invariants "
                    "over a discrete valuation ring (exact arithmetic).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, retries=False):
        p.add_argument("--seed", type=int, default=0,
                       help="master seed echoed in the output (default 0)")
        p.add_argument("--out", help="write the JSON document here instead of stdout")
        if retries:
            p.add_argument("--retries", type=int, default=20,
                           help="genericity resampling budget (default 20)")

    p = sub.add_parser("realize", help="build the factored realization of a filling")
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON file with 'filling' and 'mu'")
    common(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("extract", help="extract the filling invariant of a pair")
    p.add_argument("--in", dest="infile", required=True,
                   help="JSON file with a matrix pair ('first'/'second' or 'M'/'N')")
    common(p, retries=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("roundtrip", help="seeded realize-then-extract trials")
    p.add_argument("--trials", type=int, default=20, help="number of trials")
    p.add_argument("--rmax", type=int, default=4, help="max matrix size")
    p.add_argument("--pmax", type=int, default=6, help="max partition part")
    common(p, retries=True)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("count", help="count LR fillings of lambda/mu with content nu")
    p.add_argument("mu", help="comma-separated partition, e.g. 7,4,2,1")
    p.add_argument("nu", help="comma-separated partition")
    p.add_argument("lam", metavar="lambda", help="comma-separated partition")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("counterexample",
                       help="inequivalent pairs with one filling (deterministic)")
    common(p)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, NotInRingError, RankError) as exc:
        print(f"lrpairs: input error: {exc}", file=sys.stderr)
        return 2
    except RetriesExhaustedError as exc:
        print(f"lrpairs: retries exhausted: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"lrpairs: verification failed: {exc}", file=sys.stderr)
        return 3
    except LRPairsError as exc:
        print(f"lrpairs: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
