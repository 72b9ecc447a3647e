"""Command-line front end: verify suites, evolve states, dump operators.

Exit status contract: 0 means every check passed (flagged records are
allowed), 1 means at least one check failed, 2 means the invocation, its
input files or its output file were unusable, or the numerics refused the
input. :func:`main` is the one place that maps such an error to one
``error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .deformed import (
    build_generalized_frame,
    build_lowering_operator,
    cycle_operator_power,
)
from .evolution import hamiltonian, period_evolution
from .numerics import (
    TolerancePolicy,
    equal_up_to_global_phase,
    mat_power,
    max_abs,
)
from .pegg_barnett import (
    SpaceConfig,
    _toeplitz,
    build_phase_frame,
    commutator_closed_form,
    commutator_direct,
    commutator_double_sum,
    hermitian_phase_operator,
    number_shift_operator,
    unitary_phase_operator,
)
from .report import REPORT_FORMATS, RunManifest, json_pieces, render
from .suites import SUITE_NAMES, resolve_profile, run_suites

__all__ = ["UsageError", "main", "build_parser", "load_state"]

DUMP_OBJECTS = (
    "phase-states",
    "phi",
    "exp-iphi",
    "qN",
    "A",
    "Adag",
    "H",
    "commutators",
)

# The largest dimension each command accepts. A verify forms no d x d
# array and runs on one core at every d: a d=4096 verify takes about
# 0.1 s and peaks near 51 MB. A prime d=4093, whose four-step route is
# O(d^2) per column, takes about 0.8 s, its d2 table gathered in chunks of
# 16 rows, the last one overlapping the one before, so no product is a
# single row. A limit on the bytes a command forms could replace this one.
# A dump holds several d x d arrays (a d=1024 commutators dump peaks near
# 314-326 MB, a d=1024 `dump A` near 110 MB) and grows as d^2, so its
# limit is lower.
MAX_DUMP_DIM = 2048
MAX_DIM = 4096

# A value that argparse reads as a negative number, not an option, after a
# space: every negative decimal float literal, and -inf, -infinity and -nan in
# any case, as float() reads them. Its own pattern admits no exponent, so it
# took "--theta0 -2e-1" for an option with no argument.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


class UsageError(Exception):
    """Bad invocation or unusable input; maps to exit status 2."""


def _within_limit(dim: int, command: str, limit: int) -> int:
    """``dim``, refused before anything is built when it exceeds the command's limit."""
    if dim > limit:
        raise UsageError(f"dim = {dim} is out of range: {command} accepts dimensions up to {limit}")
    return dim


def _add_space_args(parser: argparse.ArgumentParser, dim_required: bool = True) -> None:
    parser.add_argument(
        "--dim",
        type=int,
        required=dim_required,
        default=None,
        help="Hilbert space dimension s+1",
    )
    parser.add_argument("--theta0", type=float, default=0.0, help="phase window origin")
    parser.add_argument(
        "--eta", type=float, default=0.5, help="spectrum offset of the deformed ladder"
    )
    parser.add_argument("--omega", type=float, default=1.0, help="angular frequency")
    parser.add_argument(
        "--profile",
        default="linear",
        help="deformation weights: 'linear' or a path to a JSON array",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="output file (default: stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdphase",
        description=(
            "Verify, evolve, and dump phase-operator constructions on a "
            "finite-dimensional Hilbert space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites and emit a report")
    _add_space_args(verify)
    verify.add_argument(
        "--suite",
        action="append",
        dest="suites",
        choices=(*SUITE_NAMES, "all"),
        default=None,
        help="suite to run (repeatable; default: all)",
    )
    verify.add_argument(
        "--format", choices=REPORT_FORMATS, default="json", help="report format"
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="seed for randomized state checks"
    )
    verify.set_defaults(func=cmd_verify)

    evolve = sub.add_parser("evolve", help="apply a one-cycle route to a state file")
    evolve.add_argument("state_file", type=Path, help="input state JSON")
    evolve.add_argument(
        "--mode",
        choices=("hamiltonian", "shift"),
        required=True,
        help="hamiltonian: U(2 pi/omega)^steps; shift: (q^-(N+eta))^steps",
    )
    evolve.add_argument("--steps", type=int, default=1, help="number of applications")
    _add_space_args(evolve, dim_required=False)
    evolve.set_defaults(func=cmd_evolve)

    dump = sub.add_parser("dump", help="write an operator or state family as JSON")
    dump.add_argument("object", choices=DUMP_OBJECTS, help="object to dump")
    _add_space_args(dump)
    dump.set_defaults(func=cmd_dump)

    for command in (verify, evolve, dump):
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _write_output(pieces: list, out: Path | None) -> None:
    """Write the texts in ``pieces`` one after another, never joined into one text."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)


def load_state(path: Path) -> np.ndarray:
    """Read a state file, {"dim": int, "amp": [[re, im], ...]}, as a read-only array.

    The amplitudes must be finite; any norm is accepted here.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read state file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dim" not in data or "amp" not in data:
        raise UsageError("state file must be a JSON object with 'dim' and 'amp'")
    dim = data["dim"]
    amp = data["amp"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise UsageError(f"state 'dim' must be a positive integer, got {dim!r}")
    if not isinstance(amp, list) or len(amp) != dim:
        raise UsageError("state 'amp' must list one [re, im] pair per dimension")
    values = []
    for pair in amp:
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair
            )
        )
        if not ok:
            raise UsageError("state amplitudes must be [re, im] pairs of reals")
        try:
            values.append(complex(pair[0], pair[1]))
        except OverflowError:  # a JSON integer beyond the float range
            raise UsageError("state amplitudes must be finite") from None
    state = np.asarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(state)):
        raise UsageError("state amplitudes must be finite")
    state.setflags(write=False)
    return state


def cmd_verify(args: argparse.Namespace) -> int:
    _within_limit(args.dim, "verify", MAX_DIM)
    selected = args.suites or ["all"]
    suites = SUITE_NAMES if "all" in selected else tuple(dict.fromkeys(selected))
    manifest = RunManifest(
        dim=args.dim,
        theta0=args.theta0,
        eta=args.eta,
        omega=args.omega,
        profile=args.profile,
        suites=suites,
        seed=args.seed,
        format=args.format,
    )
    report = run_suites(manifest)
    _write_output([render(report)], args.out)
    counts = report.status_counts()
    print(
        "verify: %d checks | pass %d | flagged %d | fail %d"
        % (len(report.records), counts["pass"], counts["flagged"], counts["fail"]),
        file=sys.stderr,
    )
    return 1 if counts["fail"] else 0


def cmd_evolve(args: argparse.Namespace) -> int:
    state = load_state(args.state_file)
    dim = _within_limit(state.size, "evolve", MAX_DIM)
    if args.dim is not None and args.dim != dim:
        raise UsageError(f"state dimension {dim} does not match --dim {args.dim}")
    if args.steps < 0:
        raise UsageError(f"steps must be non-negative, got {args.steps}")
    config = SpaceConfig.from_dim(dim, args.theta0)
    policy = TolerancePolicy.for_dim(dim)

    notes = []
    psi = state
    # A power-of-two scale rounds nothing and keeps the norm from over- or underflowing;
    # psi is divided out of the scaled state, since near 1e308 the norm itself is inf.
    parts = state.view(np.float64)
    exponent = int(np.frexp(np.abs(parts).max())[1])
    scaled = np.ldexp(parts, -exponent).view(np.complex128)
    scaled_norm = float(np.linalg.norm(scaled))
    with np.errstate(over="ignore"):
        norm = float(np.ldexp(scaled_norm, exponent))
    if abs(norm - 1.0) > policy.tol_elem:
        print(
            "warning: input state is not normalized; renormalizing",
            file=sys.stderr,
        )
        if scaled_norm == 0.0:
            raise UsageError("cannot normalize the zero vector")
        psi = scaled / scaled_norm
        notes.append("input state was not normalized; renormalized before evolving")

    if args.mode == "hamiltonian":
        evolution = mat_power(period_evolution(config, args.omega), args.steps)
    else:
        frame = build_generalized_frame(build_phase_frame(config), args.eta)
        evolution = cycle_operator_power(frame, args.steps)

    result = evolution.apply(psi)
    drift = abs(float(np.linalg.norm(result)) - 1.0)
    if not drift <= policy.tol_elem:
        raise ArithmeticError(
            f"evolve lost precision over {args.steps} steps: the output norm is off "
            f"by {drift:.3e} (tolerance {policy.tol_elem:.3e})"
        )
    payload = {
        "dim": dim,
        "amp": result,
        "global_phase": equal_up_to_global_phase(psi, result, policy.tol_op),
        "notes": notes,
    }
    _write_output(json_pieces(payload), args.out)
    return 0


def _dump_payload(args: argparse.Namespace, config: SpaceConfig) -> dict:
    name = args.object
    if name == "phase-states":
        frame = build_phase_frame(config)
        return {
            "kind": "phase-states",
            "dim": config.dim,
            "theta0": config.theta0,
            "states": frame.basis.entries.T,
        }
    if name == "phi":
        phi, _ = hermitian_phase_operator(build_phase_frame(config))
        return {
            "kind": "phi",
            "dim": config.dim,
            "theta0": config.theta0,
            "matrix": _toeplitz(phi),
        }
    if name == "exp-iphi":
        op = unitary_phase_operator(config)
        return {
            "kind": "exp-iphi",
            "dim": config.dim,
            "theta0": config.theta0,
            "matrix": op.entries,
        }
    if name == "qN":
        op = number_shift_operator(config)
        return {"kind": "qN", "dim": config.dim, "matrix": op.entries}
    if name in ("A", "Adag"):
        profile = resolve_profile(args.profile, config, args.eta)
        frame = build_generalized_frame(build_phase_frame(config), args.eta)
        a = build_lowering_operator(frame, profile)
        op = a if name == "A" else a.adjoint()
        return {
            "kind": name,
            "dim": config.dim,
            "theta0": config.theta0,
            "eta": args.eta,
            "profile": profile.values,
            "matrix": op.entries,
        }
    if name == "H":
        op = hamiltonian(config, args.omega)
        return {
            "kind": "H",
            "dim": config.dim,
            "omega": args.omega,
            "matrix": op.entries,
        }
    if name == "commutators":
        phi, _ = hermitian_phase_operator(build_phase_frame(config))
        closed = commutator_closed_form(config)
        double = commutator_double_sum(config)
        deviation = _toeplitz(np.abs(double - closed))
        return {
            "kind": "commutators",
            "dim": config.dim,
            "theta0": config.theta0,
            "direct": _toeplitz(commutator_direct(phi)),
            "closed_form": _toeplitz(closed),
            "double_sum": _toeplitz(double),
            "max_abs_deviation_double_sum_vs_closed": max_abs(deviation),
            "elementwise_deviation": deviation,
        }
    raise UsageError(f"unknown dump object {name!r}")


def cmd_dump(args: argparse.Namespace) -> int:
    _within_limit(args.dim, "dump", MAX_DUMP_DIM)
    config = SpaceConfig.from_dim(args.dim, args.theta0)
    _write_output(json_pieces(_dump_payload(args, config)), args.out)
    return 0


def main(argv=None) -> int:
    """Run one command; any refusal becomes one ``error:`` line and exit status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
