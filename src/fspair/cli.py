"""Command-line front door: build pairs, run verifications and sweeps,
emit JSON reports and CSV coefficient tables.

Exit codes: 0 success within the requested tolerances, 1 tolerance
violation (reports are still written), an unreachable quadrature
tolerance or a degraded verification, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys

import numpy as np

from . import nevanlinna as nev
from .measures import FSPair, PairSchemaError, load_pair, make_guinand, make_meyer, make_poisson
from .qseries import guinand_coeffs, r3_sequence, theta_coeffs
from .testfn import TestFunctionSpec, verify_pair

DEFAULT_POISSON_TRUNC = 64
DEFAULT_GUINAND_TRUNC = 512
DEFAULT_MEYER_TRUNC = 2000
_ROWS_PER_WRITE = 1 << 16

_COMPLEX_RE = re.compile(r"^([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
                         r"([+-]\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)i$")


def finite_float(text: str) -> float:
    """A float argument; nan and inf (also by overflow) are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def parse_complex(text: str) -> complex:
    """Literal 'a+bi' / 'a-bi' format with finite parts, whitespace forbidden."""
    m = _COMPLEX_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected a+bi format, got {text!r}")
    return complex(finite_float(m.group(1)), finite_float(m.group(2)))


def _build_pair(args) -> FSPair:
    if args.pair == "poisson":
        t = args.trunc or DEFAULT_POISSON_TRUNC
        return make_poisson(t, t)
    if args.pair == "guinand":
        return make_guinand(args.c if args.c is not None else 0.0,
                            args.trunc or DEFAULT_GUINAND_TRUNC)
    if args.pair == "meyer":
        return make_meyer(args.trunc or DEFAULT_MEYER_TRUNC)
    if args.file is None:
        raise PairSchemaError("--file is required when --pair file is chosen")
    return load_pair(args.file)


def _write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_pairs(args) -> int:
    for name in ("poisson", "guinand", "meyer", "file"):
        print(name)
    return 0


def _cmd_verify(args) -> int:
    pair = _build_pair(args)
    kind = "gaussian_diag" if args.testfn == "gaussian" else args.testfn
    spec = TestFunctionSpec(kind, args.scale, args.shift)
    report = verify_pair(pair, spec, args.tol)
    payload = report.to_dict()
    if args.json:
        _write_json(args.json, payload)
    print(f"pair={pair.name} lhs={report.lhs:.12g} rhs={report.rhs:.12g} "
          f"abs_residual={report.abs_residual:.3e}")
    if report.degraded:
        print("error: a test-function transform missed the quadrature tolerance; "
              "the report is flagged degraded", file=sys.stderr)
    return 0 if report.abs_residual < args.tol and not report.degraded else 1


def _cmd_coeffs(args) -> int:
    if args.family == "guinand":
        if args.c is None:
            print("--c is required for the guinand family", file=sys.stderr)
            return 2
        values = guinand_coeffs(args.c, args.n).coeffs
    elif args.family == "theta":
        values = theta_coeffs(args.n).coeffs
    else:
        values = r3_sequence(args.n).values.astype(float)
    end = "\r\n" if args.csv else "\n"  # csv.writer's terminator in files
    with (open(args.csv, "w", newline="", encoding="utf-8") if args.csv
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write("n,alpha_n" + end)
        for a in range(0, len(values), _ROWS_PER_WRITE):  # one write per block of rows
            block = values[a:a + _ROWS_PER_WRITE].tolist()
            cells = [None] * (2 * len(block))  # n_a, alpha_a, n_a+1, ...
            cells[::2], cells[1::2] = range(a, a + len(block)), block
            fh.write(("%d,%r" + end) * len(block) % tuple(cells))
    return 0


def _cmd_bridge(args) -> int:
    pair = _build_pair(args)
    rhs = nev.bridge_rhs(pair, args.k, args.w, args.z)
    T = 32.0
    Ts = []
    while T < args.tmax:
        Ts.append(T)
        T *= 2.0
    Ts.append(args.tmax)  # the sweep ends at tmax: its last sum is the reported one
    sums = [nev.bridge_sum(pair, args.k, args.w, args.z, T)
            for T in (Ts if args.sweep else Ts[-1:])]
    s = sums[-1]
    payload = {
        "pair": pair.name, "k": args.k,
        "z": {"re": args.z.real, "im": args.z.imag},
        "w": {"re": args.w.real, "im": args.w.imag},
        "tmax": args.tmax,
        "value_re": s.real, "value_im": s.imag,
        "target_re": rhs.real, "target_im": rhs.imag,
        "abs_residual": abs(s - rhs),
    }
    if args.sweep:
        payload["sweep"] = [{"T": T, "value_re": v.real, "value_im": v.imag,
                             "abs_residual": abs(v - rhs)} for T, v in zip(Ts, sums)]
    if args.json:
        _write_json(args.json, payload)
    else:
        print(f"bridge_sum={s:.12g} rhs={rhs:.12g} abs_residual={abs(s - rhs):.3e}")
    return 0


def _cmd_efcoef(args) -> int:
    pair = _build_pair(args)
    v = nev.ef_coeff(pair, getattr(args, "lambda"), args.y, args.T)
    payload = {"pair": pair.name, "lambda": getattr(args, "lambda"),
               "y": args.y, "T": args.T,
               "value_re": v.real, "value_im": v.imag}
    if args.json:
        _write_json(args.json, payload)
    else:
        print(f"ef_coeff={v:.12g}")
    return 0


def _cmd_recover(args) -> int:
    pair = _build_pair(args)
    model = nev.build_model(pair, k=args.k)
    value = nev.recover_measure(model, args.a, args.b, args.s)
    payload = {"pair": pair.name, "k": args.k, "a": args.a, "b": args.b,
               "s": args.s, "value_re": value, "value_im": 0.0}
    if args.json:
        _write_json(args.json, payload)
    else:
        print(f"recovered={value!r}")
    return 0


def _cmd_nevindex(args) -> int:
    pair = _build_pair(args)
    model = nev.build_model(pair)
    rng = np.random.default_rng(args.seed)
    pts = [complex(x, y) for x, y in zip(rng.uniform(-2, 2, args.points),
                                         rng.uniform(0.3, 3.0, args.points))]
    idx = nev.neg_index(nev.nev_matrix(model, pts))
    payload = {"pair": pair.name, "points": args.points, "seed": args.seed,
               "neg_index": idx}
    if args.json:
        _write_json(args.json, payload)
    else:
        print(f"neg_index={idx}")
    return 0


def _add_pair_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pair", required=True, choices=["poisson", "guinand", "meyer", "file"])
    p.add_argument("--file", default=None)
    p.add_argument("--c", type=finite_float, default=None)
    p.add_argument("--trunc", type=int, default=None)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every run."""
    parser = argparse.ArgumentParser(prog="fspair",
                                     description="Fourier summation pair toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    pairs = sub.add_parser("pairs", help="pair catalogue")
    pairs_sub = pairs.add_subparsers(dest="pairs_command", required=True)
    pairs_sub.add_parser("list", help="list built-in pairs").set_defaults(func=_cmd_pairs)

    verify = sub.add_parser("verify", help="verify the summation identity")
    _add_pair_flags(verify)
    verify.add_argument("--testfn", required=True, choices=["bump", "plateau", "gaussian"])
    verify.add_argument("--scale", type=finite_float, default=1.0)
    verify.add_argument("--shift", type=finite_float, default=0.0)
    verify.add_argument("--tol", type=finite_float, default=1e-8)
    verify.add_argument("--json", default=None)
    verify.set_defaults(func=_cmd_verify)

    coeffs = sub.add_parser("coeffs", help="export coefficient tables")
    coeffs.add_argument("--family", required=True, choices=["guinand", "theta", "r3"])
    coeffs.add_argument("--c", type=finite_float, default=None)
    coeffs.add_argument("--n", type=int, required=True)
    coeffs.add_argument("--csv", default=None)
    coeffs.set_defaults(func=_cmd_coeffs)

    bridge = sub.add_parser("bridge", help="tapered kernel sum vs measure integral")
    _add_pair_flags(bridge)
    bridge.add_argument("--k", type=int, required=True)
    bridge.add_argument("--z", type=parse_complex, required=True)
    bridge.add_argument("--w", type=parse_complex, required=True)
    bridge.add_argument("--tmax", type=finite_float, required=True)
    bridge.add_argument("--sweep", action="store_true")
    bridge.add_argument("--json", default=None)
    bridge.set_defaults(func=_cmd_bridge)

    efc = sub.add_parser("efcoef", help="line-average coefficient of F")
    _add_pair_flags(efc)
    efc.add_argument("--lambda", type=finite_float, required=True)
    efc.add_argument("--y", type=finite_float, required=True)
    efc.add_argument("--T", type=finite_float, required=True)
    efc.add_argument("--json", default=None)
    efc.set_defaults(func=_cmd_efcoef)

    rec = sub.add_parser("recover", help="recover measure mass on an interval")
    _add_pair_flags(rec)
    rec.add_argument("--k", type=int, required=True)
    rec.add_argument("--a", type=finite_float, required=True)
    rec.add_argument("--b", type=finite_float, required=True)
    rec.add_argument("--s", type=finite_float, required=True)
    rec.add_argument("--json", default=None)
    rec.set_defaults(func=_cmd_recover)

    nevidx = sub.add_parser("nevindex", help="negative index of the Hermitian test matrix")
    _add_pair_flags(nevidx)
    nevidx.add_argument("--points", type=int, required=True)
    nevidx.add_argument("--seed", type=int, default=0)
    nevidx.add_argument("--json", default=None)
    nevidx.set_defaults(func=_cmd_nevindex)
    return parser


def _attach_complex_values(argv) -> list:
    """Join '--z'/'--w' with a following a+bi value as '--z=a+bi', so that a
    value starting with '-' is not taken for an option."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--z", "--w") and _COMPLEX_RE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv) -> int:
    try:
        args = build_parser().parse_args(_attach_complex_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PairSchemaError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a tolerance or fit that could not be reached
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
