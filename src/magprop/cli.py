"""Command-line front end.

Subcommands: propagator, spectrum, det, mmatrix, tgen, oracle, sweep.
Output is JSON (CSV for sweep) on stdout or to --out; given identical
arguments the bytes emitted are identical. Exit codes: 0 success, 1 usage
error or an --out file that cannot be written (``error: cannot write
<path>: <reason>`` on stderr), 2 invalid query (bad domain, caustic time,
a det --method product order below 2|kt|/pi - 1/2, too small for its tail),
3 numerical failure (singular or ill-conditioned solve, failed
convergence, failed adjudication, a non-finite value in the output).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError, check_memory
from .grid import GridFunction, GridSpec, make_grid
from .magnetic import (
    ADJUDICATED_VARIANT,
    CAUSTIC_TOL,
    CPQuery,
    det_idlk,
    generating_functional,
    m_matrix,
    propagator,
    spectrum_idlk,
)
from .oracle import adjudicate

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    pass


class _NumberToken:
    """Stands in for argparse's negative-number pattern, which passes only
    strings like "-0.5" as values: here every token that float() accepts,
    "-1e-3" and "-inf" included, is a value and never an option name."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions (exit code 1, not
    argparse's default 2, which this tool reserves for invalid queries), and
    that reads every number as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NumberToken()

    def error(self, message):
        raise _UsageError(message)


def _cnum(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


def _cmat(m: np.ndarray) -> list:
    return [[_cnum(complex(v)) for v in row] for row in m]


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _WriteError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _emit_json(payload: dict, out: Optional[str]) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"non-finite value in the result: {exc}") from exc
    _emit(text + "\n", out)


def _meta(**extra) -> dict:
    meta = {
        "tolerances": {"caustic_tol": CAUSTIC_TOL},
        "variant": ADJUDICATED_VARIANT.label(),
        "version": __version__,
    }
    meta.update(extra)
    return meta


def _add_query_args(p: argparse.ArgumentParser, with_y: bool = True) -> None:
    p.add_argument("--t", type=float, required=True, help="end time, t > 0")
    p.add_argument("--k", type=float, required=True, help="cyclotron parameter")
    if with_y:
        p.add_argument("--y1", type=float, default=0.0, help="endpoint, first axis")
        p.add_argument("--y2", type=float, default=0.0, help="endpoint, second axis")
        p.add_argument("--y3", type=float, default=None,
                       help="optional third axis (free direction)")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="magprop",
                     description="constant-magnetic-field propagator calculators")
    parser.add_argument("--version", action="version", version=f"magprop {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("propagator", help="closed-form kernel at one query")
    _add_query_args(p)

    p = sub.add_parser("spectrum", help="leading non-unit eigenvalues")
    _add_query_args(p, with_y=False)
    p.add_argument("--n", type=int, default=1024, help="grid cells")
    p.add_argument("--count", type=int, default=5, help="modes to report")

    p = sub.add_parser("det", help="determinant of the shifted operator")
    _add_query_args(p, with_y=False)
    p.add_argument("--method", choices=["product", "dense"], required=True)
    p.add_argument("--order", type=int, required=True,
                   help="modes (product) or grid cells (dense)")

    p = sub.add_parser("mmatrix", help="pinning matrix, closed and numerical")
    _add_query_args(p, with_y=False)
    p.add_argument("--n", type=int, default=None,
                   help="grid cells for the numerical route (omit for closed only)")

    p = sub.add_parser("tgen", help="generating functional at a bump test function")
    _add_query_args(p)
    p.add_argument("--n", type=int, default=256, help="grid cells")
    p.add_argument("--bump", nargs=4, action="append", default=None,
                   metavar=("COMP", "AMP", "CENTER", "WIDTH"),
                   help="add amp*exp(-((s-center)/width)^2) to component COMP "
                        "(0..3); repeatable")

    p = sub.add_parser("oracle", help="adjudicate the kernel variant")
    p.add_argument("--t", type=float, default=0.7)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--y1", type=float, default=0.2)
    p.add_argument("--y2", type=float, default=0.1)
    p.add_argument("--slices", type=int, default=256)
    p.add_argument("--eps0", type=float, default=1e-4)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="propagator over a (t, k) grid, CSV")
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--t-steps", type=int, required=True)
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--k-steps", type=int, required=True)
    p.add_argument("--y1", type=float, default=0.0)
    p.add_argument("--y2", type=float, default=0.0)
    p.add_argument("--out", default=None)
    return parser


def _cmd_propagator(args) -> tuple:
    q = CPQuery(t=args.t, k=args.k, y1=args.y1, y2=args.y2, y3=args.y3)
    return _cnum(propagator(q)), {"n": None}


def _cmd_spectrum(args) -> tuple:
    res = spectrum_idlk(make_grid(args.t, args.n), args.k, args.count)
    eigenvalues = [_cnum(v) for v in res.eigenvalues]
    return {"closed_form": list(res.closed_form), "eigenvalues": eigenvalues,
            "multiplicities": list(res.multiplicities)}, {"n": args.n}


def _cmd_det(args) -> tuple:
    value = det_idlk(args.t, args.k, args.method, args.order)
    return _cnum(value), {"n": args.order if args.method == "dense" else None}


def _cmd_mmatrix(args) -> tuple:
    if args.n is None:
        return {"closed": _cmat(m_matrix(args.t, args.k))}, {"n": None}
    pairres = m_matrix(args.t, args.k, make_grid(args.t, args.n))
    return {
        "closed": _cmat(pairres.closed),
        "max_abs_diff": float(np.abs(pairres.closed - pairres.numerical).max()),
        "numerical": _cmat(pairres.numerical),
    }, {"n": args.n}


def _parse_bumps(raw, t_end: float) -> list:
    bumps = []
    for quad in raw or []:
        try:
            comp = int(quad[0])
            amp, center, width = (float(v) for v in quad[1:])
        except ValueError as exc:
            raise ValidationError(f"malformed --bump {quad}: {exc}") from exc
        if not np.isfinite(amp):
            raise ValidationError(f"bump amplitude must be finite, got {amp}")
        if comp not in (0, 1, 2, 3):
            raise ValidationError(f"bump component must be 0..3, got {comp}")
        if not (width > 0):
            raise ValidationError(f"bump width must be positive, got {width}")
        if not (0.0 <= center < t_end):
            raise ValidationError(f"bump center {center} outside [0, {t_end})")
        bumps.append((comp, amp, center, width))
    return bumps


def _cmd_tgen(args) -> tuple:
    q = CPQuery(t=args.t, k=args.k, y1=args.y1, y2=args.y2, y3=args.y3)
    # the query reports the parsed bumps in place of the raw --bump strings
    args.bumps = _parse_bumps(vars(args).pop("bump"), args.t)
    grid = make_grid(args.t, args.n)
    vals = np.zeros((4, grid.n), dtype=complex)
    for comp, amp, center, width in args.bumps:
        vals[comp] += amp * np.exp(-(((grid.nodes - center) / width) ** 2))
    res = generating_functional(q, GridFunction(grid, vals))
    det_m = _cnum(res.det_M) if res.det_M is not None else None
    return _cnum(res.value), dict(n=args.n, det_NK=_cnum(res.det_NK), det_M=det_m,
                                  branch=res.branch_note)


def _cmd_oracle(args) -> tuple:
    report = adjudicate(t=args.t, k=args.k, y1=args.y1, y2=args.y2,
                        slices=args.slices, eps0=args.eps0)
    result = {"selected": report.selected.label(), "slicing_value": _cnum(report.slicing_value)}
    return result, dict(
        n=args.slices,
        convergence=[[int(nsl), float(rel)] for nsl, rel in report.convergence],
        slice_counts=[int(nsl) for nsl in report.slice_counts],
        n_table=[[_cnum(v) for v in col] for col in report.n_table],
        extrapolated_value=_cnum(report.extrapolated_value),
        notes=list(report.confidence_notes),
        pde_residuals={lab: [float(x) for x in v] for lab, v in report.pde_residuals.items()},
        short_time_defect={lab: float(d) for lab, d in report.short_time_defect.items()},
    )


# Bytes one sweep row holds until the CSV is written: its CPQuery, two
# linspace entries, its text line and its share of the joined output (about
# 420 measured with tracemalloc), rounded up.
_SWEEP_ROW_BYTES = 512


def _check_sweep(t_steps: int, k_steps: int) -> None:
    """Refuse a sweep with fewer than one step per axis, or one whose rows
    would not fit the memory budget, before anything is allocated."""
    for name, steps in (("t-steps", t_steps), ("k-steps", k_steps)):
        if steps < 1:
            raise ValidationError(f"--{name} must be >= 1")
    check_memory(f"a sweep of {t_steps * k_steps} rows", _SWEEP_ROW_BYTES * t_steps * k_steps)


def _cmd_sweep(args) -> None:
    _check_sweep(args.t_steps, args.k_steps)
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    ks = np.linspace(args.k_min, args.k_max, args.k_steps)
    queries = [CPQuery(t=float(t), k=float(k), y1=args.y1, y2=args.y2)
               for t in ts for k in ks]
    for q in queries:  # validate everything before emitting a single row
        q.validate()
    lines = ["t,k,re,im"]
    for q in queries:
        v = propagator(q)
        if not np.isfinite(v):
            raise NumericalError(f"non-finite propagator at t={q.t!r}, k={q.k!r}")
        lines.append(f"{q.t!r},{q.k!r},{v.real!r},{v.imag!r}")
    _emit("\n".join(lines) + "\n", args.out)


# Each handler returns its result and its own meta entries; _emit_envelope
# wraps them. sweep writes CSV and is dispatched on its own.
_JSON_COMMANDS = {
    "propagator": _cmd_propagator,
    "spectrum": _cmd_spectrum,
    "det": _cmd_det,
    "mmatrix": _cmd_mmatrix,
    "tgen": _cmd_tgen,
    "oracle": _cmd_oracle,
}


def _emit_envelope(args, result, meta: dict) -> None:
    """The JSON envelope of every subcommand but sweep: the parsed arguments
    minus --out as the query, the handler's result, and _meta over the
    handler's meta entries."""
    query = {key: value for key, value in vars(args).items() if key != "out"}
    _emit_json({"query": query, "result": result, "meta": _meta(**meta)}, args.out)


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return 1
    try:
        # A non-finite result exits 3 through allow_nan=False; numpy's own
        # RuntimeWarning on the way there would only add noise to stderr.
        with np.errstate(all="ignore"):
            if args.command == "sweep":
                _cmd_sweep(args)
            else:
                _emit_envelope(args, *_JSON_COMMANDS[args.command](args))
    except _WriteError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
