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
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .errors import (InputError, LRPairsError, NotInRingError, RankError,
                     RetriesExhaustedError, VerificationError)
from .extract import counterexample_demo, extract_from_pair
from .generic import MatrixPair, genericity_stats, reset_genericity_stats
from .matrix import RMatrix
from .realize import random_filling, realize
from .ring import INFINITY, MAX_DEGREE
from .tableaux import MAX_SIZE, Filling, Partition, count_fillings


# Largest --rmax x --pmax box that roundtrip draws mu and nu from.
# random_filling lists every candidate outer shape of a draw, and that list
# grows like (rmax * pmax) ** (rmax - 1); a bound on --pmax alone would not
# bound it at --rmax 10.  With nu the full box and mu a rectangle, the lists
# at the limit reach 290 k shapes at 8 x 7 (0.74 s of CPU and 34 MB to list
# as tuples on a 2-vCPU x86-64 host) and 80 k at 6 x 10.  At 10 x 6 (the
# default --pmax at the largest --rmax) they reach 1.25 M, by a count that
# lists none: some 3 s and 150 MB at the 8 x 7 rate.  At 10 x 20 they pass
# 10 ** 9.
MAX_BOX = MAX_SIZE * 6

_CONSTANTS = {None: "null", True: "true", False: "false"}


def _parse_partition(text: str) -> Partition:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) > MAX_SIZE:
        raise InputError(f"partition of {len(parts)} parts exceeds the limit {MAX_SIZE}")
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
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSONDecodeError, bytes that are not UTF-8, or an
        # integer past CPython's digit limit; RecursionError: deep nesting
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
    """The table keyed "rows|cols", each index set's text built once; the
    writer sorts the keys."""
    text = {s: ",".join(map(str, s)) for s in {s for key in table for s in key}}
    return {text[rows] + "|" + text[cols]: "inf" if v is INFINITY else v
            for (rows, cols), v in table.items()}


def _dumps(o, nl: str = "\n") -> str:
    """The text of json.dumps(o, indent=2, sort_keys=True) for a document of
    str, int, True, False, None, lists, tuples and dicts with str keys,
    written directly (at an indent ``json`` always runs its pure-Python
    encoder); nl is the line break and indent of o's own level.  The types
    are tried in ``json``'s order, with the same text for each: strings
    through ``json``'s own ASCII escaper, ints through ``int.__repr__``, str
    and int members of a container written in place; any other type, a
    float among them, and any non-str key raise TypeError.  Documents are
    trees: a cycle is not detected."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
                 else _dumps(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_quote(k) + ": "
                 + (_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
                    else _dumps(v, inner))
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _emit(doc, out_path):
    text = _dumps(doc)
    if out_path:
        _write(out_path, text + "\n")
    else:
        print(text)


def _check_options(args):
    """Reject --retries and --out values that no command can use, before any
    work is done."""
    if getattr(args, "retries", 0) < 0:
        raise InputError(f"--retries must be at least 0, got {args.retries}")
    if args.out:
        out_dir = os.path.dirname(args.out) or "."
        if not os.path.isdir(out_dir):
            raise InputError(f"--out directory {out_dir} does not exist")
        if os.path.isdir(args.out):
            raise InputError(f"--out {args.out} is a directory")


# ---------------------------------------------------------------------------
# commands


def cmd_realize(args) -> int:
    data = _load_json(args.infile)
    if not isinstance(data, dict) or "filling" not in data or "mu" not in data:
        raise InputError("realize input must be an object with 'filling' and 'mu'")
    filling = _load_filling(data["filling"])
    mu = Partition.from_json(data["mu"])
    # extract reads no degree above MAX_DEGREE, so realize writes none: M's
    # largest is mu_1 and a factor's the largest filling entry, bounded
    # before any work, and N's is read off the product
    top = max(mu.part(1), max((k for row in filling.rows for k in row), default=0))
    if top <= MAX_DEGREE:
        real = realize(filling, mu)
        top = max((d for row in real.n.entries for e in row for d in e.num), default=0)
    if top > MAX_DEGREE:
        raise InputError(f"realize would write degree {top}, above the limit {MAX_DEGREE}")
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
    if args.rmax * args.pmax > MAX_BOX:
        raise InputError(f"--rmax {args.rmax} times --pmax {args.pmax} exceeds "
                         f"the limit {MAX_BOX}")
    if args.trials < 0:
        raise InputError(f"--trials must be at least 0, got {args.trials}")
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
        _write(path, _dumps(artifact))
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


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_options(args)
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
