"""Command-line front end: every computation with JSON/plain output and a disk cache.

Exit codes: 0 success (or all checks passed), 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from functools import partial
from typing import Optional

from . import __version__
from .floer import VerificationError, eigen_verify, hilbert_compare, solve_subleading
from .poly import ALPHA, OMEGA, Poly
from .relations import GeneratorSet, igen, jgen_n1, rho_proj, rho_series, xi

USAGE_ERROR = 2
# acceptance.SUITES's names, so that no command but verify loads acceptance
SUITE_NAMES = ("eigen", "local", "membership", "poincare", "rho", "subleading")


def default_cache_dir() -> str:
    env = os.environ.get("FLOER_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "floer")


class Cache:
    """One JSON file per key; atomic write-temp-then-rename; byte-stable payloads.

    An entry is served only if it parses and carries the requested key and this
    tool version; anything else is a miss that the caller recomputes and overwrites.
    """

    def __init__(self, directory: Optional[str], enabled: bool = True):
        self.directory = directory
        self.enabled = enabled and directory is not None

    def _path(self, key: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9_.+-]", "_", key)
        return os.path.join(self.directory, safe + ".json")

    def get(self, key: str):
        if not self.enabled:
            return None
        try:
            with open(self._path(key)) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):  # absent or unreadable
            return None
        if (not isinstance(entry, dict) or entry.get("key") != key
                or entry.get("tool_version") != __version__
                or not isinstance(entry.get("payload"), dict)):
            return None
        return entry["payload"]

    def put(self, key: str, payload) -> None:
        if not self.enabled:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(key)
        entry = {"key": key, "tool_version": __version__, "payload": payload}
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(entry, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def _print_poly(p: Poly, args) -> None:
    if args.json:
        print(dump_json(p.to_json()))
    else:
        shown = p.change_coordinates(ALPHA if args.alpha_coords else OMEGA)
        print(shown)


def _print_genset(gs: GeneratorSet, args) -> None:
    if args.json:
        print(dump_json(gs.to_json()))
    else:
        print(f"# {gs.label}")
        for name, p in gs.gens:
            shown = p.change_coordinates(ALPHA if args.alpha_coords else OMEGA)
            print(f"{name} = {shown}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}")


def _odd_positive(text: str) -> int:
    value = int(text)
    if value < 1 or value % 2 == 0:
        raise argparse.ArgumentTypeError("n must be a positive odd integer")
    return value


def _odd_int(text: str) -> int:
    value = int(text)
    if value % 2 == 0:
        raise argparse.ArgumentTypeError("expected an odd integer")
    return value


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floer",
        description="Exact computations with the relation families and quotient "
                    "models of one-manifold-times-surface instanton homology rings.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON documents")
    common.add_argument("--cache-dir", default=None,
                        help="cache directory (default $FLOER_CACHE_DIR or ~/.cache/floer)")
    common.add_argument("--no-cache", action="store_true", help="disable the disk cache")
    # each flag below is offered only to the subcommands that read it
    alpha_coords = argparse.ArgumentParser(add_help=False)
    alpha_coords.add_argument("--alpha-coords", action="store_true",
                              help="print polynomials in alpha-coordinates (default omega)")
    timestamps = argparse.ArgumentParser(add_help=False)
    timestamps.add_argument("--timestamps", action="store_true",
                            help="include a timestamp field in JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, *flags, **kw):
        return sub.add_parser(name, parents=[common, *flags], **kw)

    p = add_parser("xi", alpha_coords, help="Mumford relation xi_{k,n}")
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--n", type=_odd_int, required=True)

    p = add_parser("rho", help="rho_{k,r} in omega and beta")
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--r", type=_odd_int, required=True)
    p.add_argument("--method", choices=["projection", "series"], default="projection")

    p = add_parser("igen", alpha_coords, timestamps, help="graded ideal generator set")
    p.add_argument("--g", type=_nonneg, required=True)
    p.add_argument("--n", type=_odd_positive, required=True)
    p.add_argument("--parity", choices=["even", "odd"], required=True)

    p = add_parser("jgen", alpha_coords, timestamps, help="one-point ideal generator set")
    p.add_argument("--g", type=_nonneg, required=True)
    p.add_argument("--sign", choices=["plus", "minus"], default="plus")
    p.add_argument("--local", action="store_true")

    p = add_parser("hilbert", timestamps, help="graded dimensions against a closed formula")
    p.add_argument("--g", type=_nonneg, required=True)
    p.add_argument("--n", type=_odd_positive, required=True)
    p.add_argument("--source", choices=["ptgn", "total", "k"], required=True)
    p.add_argument("--max-degree", type=_nonneg, required=True)

    p = add_parser("eigen", timestamps, help="spectral verification of a one-point model")
    p.add_argument("--g", type=_nonneg, required=True)
    p.add_argument("--sign", choices=["plus", "minus"], default="plus")
    p.add_argument("--theta", type=_parse_fraction, default=None,
                   help="rational local-coefficient specialization u = theta")

    p = add_parser("solve", alpha_coords, timestamps, help="sub-leading solver at n marked points")
    p.add_argument("--g", type=_nonneg, required=True)
    p.add_argument("--n", type=_odd_positive, default=3)

    p = add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all",
                   choices=["all", *SUITE_NAMES])
    p.add_argument("--g-max", type=_nonneg, default=None)
    p.add_argument("--n-max", type=_odd_positive, default=None)
    return parser


def _sign(text: str) -> str:
    return "+" if text == "plus" else "-"


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    cache = Cache(args.cache_dir or default_cache_dir(), enabled=not args.no_cache)

    def emit_cached(key: str, compute):
        """Print the payload cached under ``key``; only a miss calls ``compute``,
        whose result's ``to_json()`` is then stored."""
        payload = cache.get(key)
        if payload is None:
            payload = compute().to_json()
            cache.put(key, payload)
        doc = dict(payload)
        if args.timestamps:
            doc["timestamp"] = time.time()
        print(dump_json(doc))
        return payload

    def emit_genset(key: str, compute) -> None:
        """``emit_cached`` with --json, else the generator set as text."""
        if args.json:
            emit_cached(key, compute)
        else:
            _print_genset(compute(), args)

    try:
        if args.command == "xi":
            _print_poly(xi(args.k, args.n), args)
        elif args.command == "rho":
            if args.method == "projection":
                if args.r < 1:
                    parser.error("projection method needs r >= 1")
                p = rho_proj(args.k, args.r, 0)
            else:
                p = rho_series(args.k, args.r)
            if args.json:
                print(dump_json(p.to_json()))
            else:
                print(p)
        elif args.command == "igen":
            emit_genset(f"igen_g{args.g}_n{args.n}_{args.parity}",
                        partial(igen, args.g, args.n, args.parity))
        elif args.command == "jgen":
            emit_genset(f"jgen_g{args.g}_{args.sign}_local{int(args.local)}",
                        partial(jgen_n1, args.g, _sign(args.sign), local=args.local))
        elif args.command == "hilbert":
            compute = partial(hilbert_compare, args.g, args.n, args.source, args.max_degree)
            if args.json:
                payload = emit_cached(
                    f"hilbert_g{args.g}_n{args.n}_{args.source}_d{args.max_degree}",
                    compute)
                return 0 if payload["match"] else 1
            rep = compute()
            for d, c, f in rep.degrees:
                if c or f or d % 2 == 0:
                    print(f"degree {d}: computed {c}, formula {f}")
            print("match" if rep.match else "MISMATCH")
            return 0 if rep.match else 1
        elif args.command == "eigen":
            if args.g < 1:
                parser.error("eigen needs g >= 1")
            compute = partial(eigen_verify, args.g, _sign(args.sign), theta=args.theta)
            if args.json:
                theta_key = "1" if args.theta is None else str(args.theta)
                emit_cached(f"eigen_g{args.g}_{args.sign}_theta{theta_key}", compute)
            else:
                rep = compute()
                print(f"subspace dim {rep.subspace_dim} of {rep.total_dim}")
                for t in rep.tuples:
                    print(f"  (alpha,beta,gamma,delta)=({t['alpha']},{t['beta']},"
                          f"{t['gamma']},{t['delta'][0]}) mult {t['gen_mult']}")
        elif args.command == "solve":
            emit_genset(f"solve_g{args.g}_n{args.n}", partial(solve_subleading, args.g, args.n))
        elif args.command == "verify":
            from . import acceptance
            results = acceptance.run_suite(
                args.suite, g_max=args.g_max, n_max=args.n_max,
                cache=None if args.no_cache else cache,
                emit=(lambda _line: None) if args.json else print)
            if args.json:
                print(dump_json([r._asdict() for r in results]))
            return 0 if all(r.passed for r in results) else 1
    except (AssertionError, VerificationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:  # parser.error inside a subcommand
        return USAGE_ERROR if exc.code not in (0, None) else 0
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
