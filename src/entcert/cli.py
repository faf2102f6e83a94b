"""Command-line front end: state files in, JSON certificates out.
Exit codes: 0 on success, 1 on invalid input (parse or invariant failure,
an ``--out`` path that cannot be written, or a size too large to
allocate; the message names the violated invariant), 2 on numerical
failure (eigensolver error or oracle non-convergence).  All results go
to stdout as a single JSON document written by ``json.dumps``, which
refuses NaN and Infinity; ``--out`` first writes the same text to a
file.  Informational chatter goes to stderr and is silenced by
``--quiet``.

A caller that runs ``main`` many times in one process reuses the basis
witness of each ``(d, L)`` that ``bound --mub`` and ``mub-witness`` build,
at most 16 (least recently used first out), and ``load_witness`` parses
and validates the text of each ``bound --witness-file`` once, at most 16
texts; state files are parsed on every call.  A one-shot ``entcert``
process builds each once anyway and gains nothing.

Each ``main`` call runs its command with the cyclic garbage collector
paused: the JSON trees a command decodes and prints (2,401 pairs for a
7x7 ``twirl``) are acyclic and freed as they go, and collections of them
cost a long-lived caller full-heap pauses.  Cyclic garbage waits until the
call returns; the switch is process-wide.  The library's file functions
pause it too, but only while a JSON tree is alive.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import InvariantViolation, NumericalError
from .io import _collector_paused, fixture, load_state, load_witness, payload
from .linalg import hermitian_eig, require
from .measures import concurrence_pure, diagonal_twirl, dsep_pure, eof_pure, geometric_pure
from .oracle import OracleConfig, dsep_upper
from .states import PureState, schmidt
from .witnesses import (
    RotationSet,
    generic_bound,
    mub_bound,
    mub_family,
    mub_witness,
    spin_bound,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the contract reserves 2
    # for numerical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _info(args, text: str) -> None:
    if not args.quiet:
        print(text, file=sys.stderr)


def _emit(args, doc: dict, out: str | None = None) -> None:
    text = json.dumps(doc, allow_nan=False) + "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InvariantViolation(f"output: cannot write {out}: {exc.strerror or exc}") from exc
        _info(args, f"wrote {out}")
    sys.stdout.write(text)


# Depends only on its arguments and returns a frozen object with read-only
# arrays, so callers in one process share it; an exception is not cached.
@functools.lru_cache(maxsize=16)
def _basis_witness(d: int, count: int):
    return mub_witness(mub_family(d, count), RotationSet.identity(d, count))


def _cmd_bound(args) -> int:
    rho = load_state(args.state)
    if args.witness_file:
        cert = generic_bound(load_witness(args.witness_file), rho)
    elif args.mub:
        d, count = args.mub
        cert = mub_bound(_basis_witness(d, count), count, rho)
    else:
        cert = spin_bound(rho)
    _info(args, f"certified={cert.certified} dsep_lower={cert.dsep_lower:.6g}")
    _emit(args, cert.to_json())
    return 0


def _cmd_mub_witness(args) -> int:
    _emit(args, payload(_basis_witness(args.d, args.L)), out=args.out)
    return 0


def _cmd_pure(args) -> int:
    rho = load_state(args.state)
    w, v = hermitian_eig(rho.mat)
    require(max(w[:-1], default=0.0), 1e-8, "rank: second-largest eigenvalue of the state")
    psi = PureState(dims=rho.dims, vec=v[:, -1])
    lam, _, _ = schmidt(psi)
    _emit(args, {
        "schmidt": [float(x) for x in lam.coeffs],
        "dsep_pure": dsep_pure(lam),
        "concurrence": concurrence_pure(lam),
        "eof": eof_pure(lam),
        "geometric": geometric_pure(lam),
    })
    return 0


def _cmd_oracle(args) -> int:
    result = dsep_upper(load_state(args.state), OracleConfig(restarts=args.restarts, seed=args.seed))
    _info(
        args,
        f"oracle: dsep_upper={result.dsep_upper:.6g} after {result.iterations_used} "
        f"iterations, converged={result.converged}",
    )
    _emit(args, result.to_json())
    return 0 if result.converged else 2


def _cmd_fixtures(args) -> int:
    _emit(args, payload(fixture(args.name)), out=args.out)
    return 0


def _cmd_twirl(args) -> int:
    _emit(args, payload(diagonal_twirl(load_state(args.state))), out=args.out)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    # the contract only: the paragraphs past it are notes for callers of ``main``
    parser = _Parser(prog="entcert", description=__doc__.split("\n\n")[0])
    common = _Parser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="print only the JSON result")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bound", parents=[common], help="witness bound certificate for a state file")
    p.add_argument("--state", required=True, help="density-matrix JSON file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--witness-file", help="witness JSON file")
    grp.add_argument("--mub", nargs=2, type=int, metavar=("D", "L"), help="construct the basis witness")
    grp.add_argument("--spin", action="store_true", help="use the collective-variance witness")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("mub-witness", parents=[common], help="emit a basis witness (identity rotations)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mub_witness)

    p = sub.add_parser("pure", parents=[common], help="Schmidt data and dephasing distance of a rank-1 state")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_pure)

    p = sub.add_parser("oracle", parents=[common], help="brute-force separable upper bound")
    p.add_argument("--state", required=True)
    p.add_argument("--restarts", type=int, default=OracleConfig.restarts)
    p.add_argument("--seed", type=int, default=OracleConfig.seed)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fixtures", parents=[common], help="write a named built-in object")
    p.add_argument("--name", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("twirl", parents=[common], help="diagonal-unitary twirl of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_twirl)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _collector_paused():
            return args.func(args)
    except InvariantViolation as exc:
        print(f"entcert: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size: "Unable to allocate 14.6 TiB ..."
        print(f"entcert: error: size: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"entcert: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
