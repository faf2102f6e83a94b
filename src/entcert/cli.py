"""Command-line front end: state files in, JSON certificates out.

Exit codes: 0 on success, 1 on invalid input (parse or invariant failure,
the message names the violated invariant), 2 on numerical failure
(eigensolver error or oracle non-convergence).  All results go to stdout
as a single JSON document written by ``json.dumps``; ``--out`` writes the
same text to a file.  Informational chatter goes to stderr and is
silenced by ``--quiet``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import InvariantViolation, NumericalError
from .generators import gellmann
from .io import fixture, load_state, load_witness, payload
from .linalg import hermitian_eig
from .measures import (
    bounds_from_dsep,
    concurrence_pure,
    diagonal_twirl,
    dsep_pure,
    eof_pure,
    geometric_pure,
)
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

_RANK_TOL = 1e-8


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
    text = json.dumps(doc) + "\n"
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)
        _info(args, f"wrote {out}")


def _certificate_payload(cert) -> dict:
    bounds = bounds_from_dsep(cert.dsep_lower).to_json()
    doc = cert.to_json()
    doc.update((k, v) for k, v in bounds.items() if k != "dsep_lower")
    return doc


def _cmd_bound(args) -> int:
    rho = load_state(args.state)
    if args.witness_file:
        cert = generic_bound(load_witness(args.witness_file), rho)
    elif args.mub:
        d, count = args.mub
        fam = mub_family(d, count)
        w = mub_witness(fam, RotationSet.identity(d, count))
        cert = mub_bound(w, count, rho)
    else:
        cert = spin_bound(rho, gellmann(rho.dims[0]))
    _info(args, f"certified={cert.certified} dsep_lower={cert.dsep_lower:.6g}")
    _emit(args, _certificate_payload(cert))
    return 0


def _cmd_mub_witness(args) -> int:
    fam = mub_family(args.d, args.L)
    w = mub_witness(fam, RotationSet.identity(args.d, args.L))
    _emit(args, payload(w), out=args.out)
    return 0


def _cmd_pure(args) -> int:
    rho = load_state(args.state)
    w, v = hermitian_eig(rho.mat)
    if w.size > 1 and w[-2] > _RANK_TOL:
        raise InvariantViolation(
            f"rank: state is not rank-1 within {_RANK_TOL:g} "
            f"(second eigenvalue {w[-2]:.3e})"
        )
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
    parser = _Parser(prog="entcert", description=__doc__)
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

    p = sub.add_parser("spin-bound", parents=[common], help="alias of bound --spin")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_bound, spin=True, witness_file=None, mub=None)

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
        return args.func(args)
    except InvariantViolation as exc:
        print(f"entcert: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"entcert: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
