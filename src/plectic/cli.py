"""Batch command-line front end: JSON in, JSON report out.

Exit codes: 0 on pass/success, 1 on a failed check, 2 on input errors.
Identical inputs and configuration produce byte-identical reports.

Each subcommand is declared once, by the `command` decorator on its
handler: `@command("phs", "filtration", INDEX)` makes `plectic phs
filtration` take the common flags plus `--index`.  To add a subcommand,
write a handler `cmd_<group>_<name>(args, config)` that returns
`(payload, passed)`, decorate it, and publish its payload schema in
`schemas.py`.  A handler that reads its input document does so inside
`errors.reading`, as the `serialize` readers do.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import mpmath as mp

from . import abeljacobi as aj
from . import config as cfg
from . import hodge as hg
from . import serialize as ser
from . import shimura as sh
from . import tori as tr
from .errors import InputError, PlecticError, json_int, reading
from .numberfields import FieldOrder, FractionalIdealRep
from .schemas import SCHEMA_VERSION
from .serialize import real_to_json

ENV_PRECISION = "PLECTIC_PRECISION"


@dataclass
class GlobalConfig:
    """Numeric configuration echoed into every report; `main` resolves
    the tolerance, so it is never None here."""

    precision: int
    tolerance: mp.mpf
    truncation: int
    seed: int
    output: str | None

    def echo(self) -> dict:
        return {
            "precision": self.precision,
            "tolerance": real_to_json(self.tolerance),
            "truncation": self.truncation,
            "seed": self.seed,
        }


def _load_input(args) -> dict:
    if not args.input:
        raise InputError("this subcommand requires --input FILE")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {args.input} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise InputError(f"{args.input}: the top level must be a JSON object")
    return obj


def _parse_bits(text, n):
    bits = tuple(int(b) for b in text.split(","))
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise InputError(f"expected {n} comma-separated bits")
    return bits


def _parse_weights(text, n):
    if text is None:
        return (1.0,) * n
    w = tuple(float(x) for x in text.split(","))
    if len(w) != n:
        raise InputError(f"expected {n} comma-separated weights")
    return w


def _flat_space(args, config):
    from . import flat as fl

    if args.input:
        torus = ser.flat_torus_from_json(_load_input(args))
    else:
        if args.n is None:
            raise InputError("either --input or --n is required")
        torus = fl.FlatTorus.square(args.n, _parse_weights(args.weights, args.n))
    return fl.build_space(torus, config.truncation)


# ----------------------------------------------------------------------
# subcommands: each handler returns (payload, passed)
# ----------------------------------------------------------------------

HANDLERS = {}  # (group, name) -> handler
_FLAGS = {}  # (group, name) -> the flags beyond the common ones


def command(group: str, name: str, *flags):
    """Declare `plectic GROUP NAME`: the decorated handler, with the common
    flags and `flags`, each a (flag, add_argument keywords) pair."""
    def register(handler):
        HANDLERS[group, name] = handler
        _FLAGS[group, name] = flags
        return handler
    return register


def flag(name: str, kind=int, **kwargs):
    return name, dict(type=kind, **kwargs)


INDEX = flag("--index", required=True)
NU = flag("--nu", required=True)
FLAT_TORUS = (flag("--n"), flag("--weights", str))  # a square torus when there is no --input


@command("phs", "validate")
def cmd_phs_validate(args, config):
    h = ser.phs_from_json(_load_input(args))
    rep = hg.validate(h, config.tolerance)
    payload = {
        "passed": rep.passed,
        "span_defect": real_to_json(rep.span_defect),
        "conjugation_residual": real_to_json(rep.conjugation_residual),
        "piece_dims": [
            {"alpha": list(a), "beta": list(b), "dim": dim}
            for (a, b), dim in sorted(rep.piece_dims.items())
        ],
        "messages": list(rep.messages),
    }
    return payload, rep.passed


@command("phs", "refine")
def cmd_phs_refine(args, config):
    h = ser.phs_from_json(_load_input(args))
    cl = hg.refine_to_classical(h)
    return {"rank": cl.rank, "pieces": ser.classical_to_json(cl)["pieces"]}, True


@command("phs", "filtration", INDEX)
def cmd_phs_filtration(args, config):
    h = ser.phs_from_json(_load_input(args))
    F = hg.hodge_filtration(h, args.index)
    return {
        "index": args.index,
        "dimension": F.cols,
        "basis": ser.matrix_to_json(F),
    }, True


@command("phs", "tensor")
def cmd_phs_tensor(args, config):
    obj = _load_input(args)
    with reading("tensor input"):
        a, b = obj["a"], obj["b"]
    t = hg.tensor(ser.phs_from_json(a), ser.phs_from_json(b))
    rep = hg.validate(t, config.tolerance)
    return {"structure": ser.phs_to_json(t), "valid": rep.passed}, rep.passed


@command("phs", "jacobian", INDEX)
def cmd_phs_jacobian(args, config):
    h = ser.phs_from_json(_load_input(args))
    torus = hg.plectic_jacobian(h, args.index)
    return {"index": args.index, "torus": ser.torus_to_json(torus)}, True


@command("torus", "dual")
def cmd_torus_dual(args, config):
    t = ser.torus_from_json(_load_input(args))
    return {"torus": ser.torus_to_json(tr.dual_torus(t))}, True


@command("torus", "endos", flag("--height-bound", default=5))
def cmd_torus_endos(args, config):
    t = ser.torus_from_json(_load_input(args))
    endos = tr.endomorphisms(t, args.height_bound)
    return {
        "height_bound": args.height_bound,
        "rank": len(endos),
        "basis": [N.to_json() for N, _ in endos],
        "multipliers": [ser.matrix_to_json(M) for _, M in endos],
    }, True


@command("torus", "rm-detect", flag("--height-bound", default=5))
def cmd_torus_rm_detect(args, config):
    t = ser.torus_from_json(_load_input(args))
    rm = tr.detect_rm(t, args.height_bound)
    if rm is None:
        return {"found": False, "height_bound": args.height_bound}, False
    return {
        "found": True,
        "height_bound": args.height_bound,
        "rm": ser.rm_to_json(rm),
    }, True


@command("torus", "rm-construct")
def cmd_torus_rm_construct(args, config):
    obj = _load_input(args)
    with reading("rm-construct input"):
        field = obj["field"]
        z = [ser.complex_from_json(c) for c in obj["z"]]
    field = FieldOrder.from_json(field)
    ideal = FractionalIdealRep.from_json(field, obj["ideal"]) if "ideal" in obj else None
    torus = tr.construct_rm_torus(field, z, ideal)
    return {"torus": ser.torus_to_json(torus)}, True


@command("torus", "rm-algebraize", flag("--height-bound", default=10))
def cmd_torus_rm_algebraize(args, config):
    obj = _load_input(args)
    if "torus" in obj:
        t = ser.torus_from_json(obj["torus"])
        rm = ser.rm_from_json(obj["rm"]) if "rm" in obj else t.rm
    else:
        t = ser.torus_from_json(obj)
        rm = t.rm
    if rm is None:
        rm = tr.detect_rm(t, args.height_bound)
        if rm is None:
            raise InputError("no rm supplied and none detected")
    t2, rm2, _ = tr.enlarge_to_maximal(t, rm)
    res = tr.algebraize_rm(t2, rm2, tol=config.tolerance)
    payload = {
        "z": [ser.complex_to_json(c) for c in res.z],
        "ideal": res.ideal.to_json(),
        "field": rm2.field.to_json(),
        "iso": ser.matrix_to_json(res.iso),
        "residual": real_to_json(res.residual),
    }
    return payload, bool(res.residual < config.tolerance * 1000)


@command("flat", "verify-identities", *FLAT_TORUS)
def cmd_flat_verify_identities(args, config):
    from . import flat as fl

    space = _flat_space(args, config)
    rep = fl.verify_refined_identities(space)
    payload = {
        "identity": rep.identity,
        "max_residual": repr(rep.max_residual),
        "dims": rep.dims,
        "pass": rep.passed,
    }
    return payload, rep.passed


@command("flat", "verify-laplacian", *FLAT_TORUS)
def cmd_flat_verify_laplacian(args, config):
    from . import flat as fl

    space = _flat_space(args, config)
    rep = fl.verify_laplacian_sum(space)
    payload = {
        "sum_residual": repr(rep.sum_residual),
        "dolbeault_residual": repr(rep.dolbeault_residual),
        "half_sum_residual": repr(rep.half_sum_residual),
        "cross_term_max": repr(rep.cross_term_max),
        "block_diagonal_exact": rep.block_diagonal_exact,
        "dims": rep.dims,
        "pass": rep.passed,
    }
    return payload, rep.passed


@command("flat", "harmonic", *FLAT_TORUS, flag("--alpha", str, required=True),
         flag("--beta", str, required=True))
def cmd_flat_harmonic(args, config):
    from . import flat as fl

    space = _flat_space(args, config)
    n = space.torus.n
    alpha = _parse_bits(args.alpha, n)
    beta = _parse_bits(args.beta, n)
    hb = fl.harmonic_space(space, alpha, beta)
    return {
        "alpha": list(alpha),
        "beta": list(beta),
        "dimension": hb.dim,
        "space_dim": space.dim,
    }, True


@command("flat", "extract-phs", *FLAT_TORUS, flag("--degree", required=True))
def cmd_flat_extract_phs(args, config):
    from . import flat as fl

    space = _flat_space(args, config)
    phs = fl.extract_plectic_structure(space, args.degree)
    return {"degree": args.degree, "structure": ser.phs_to_json(phs)}, True


@command("flat", "metric-independence", flag("--n", required=True),
         flag("--weights-a", str), flag("--weights-b", str))
def cmd_flat_metric_independence(args, config):
    from . import flat as fl

    wa = _parse_weights(args.weights_a, args.n)  # argparse requires --n here
    wb = _parse_weights(args.weights_b, args.n)
    res = fl.metric_independence_check(fl.FlatTorus.square(args.n, wa), wa, wb, config.truncation)
    payload = {
        "residual": repr(res["residual"]),
        "projection_difference": repr(res["projection_difference"]),
        "passed": res["passed"],
    }
    return payload, res["passed"]


@command("qsv", "build")
def cmd_qsv_build(args, config):
    d = ser.datum_from_json(_load_input(args))
    phs = sh.build_plectic_from_frobenii(d, config.tolerance)
    rep = hg.validate(phs, config.tolerance)
    payload = {
        "structure": ser.phs_to_json(phs),
        "validation": {
            "passed": rep.passed,
            "span_defect": real_to_json(rep.span_defect),
            "conjugation_residual": real_to_json(rep.conjugation_residual),
        },
    }
    return payload, rep.passed


@command("qsv", "strongly-primitive")
def cmd_qsv_strongly_primitive(args, config):
    obj = _load_input(args)
    with reading("strongly-primitive input"):
        structure, cups = obj["structure"], obj.get("cups", [])
        if not isinstance(cups, list):
            raise TypeError(f"cups must be a list, not {cups!r}")
        cups = [(json_int(c["nu"]), ser.int_rows_from_json(c["matrix"]), c["target"])
                for c in cups]
    h = ser.phs_from_json(structure)
    cups = [sh.CupOperator(nu, matrix, ser.phs_from_json(target))
            for nu, matrix, target in cups]
    out = sh.strongly_primitive(h, cups, config.tolerance)
    return {"structure": ser.phs_to_json(out),
            "effective_weight_one": hg.is_effective_weight_one(out)}, True


@command("qsv", "nu-structure", NU)
def cmd_qsv_nu_structure(args, config):
    d = ser.datum_from_json(_load_input(args))
    cl = sh.nu_hodge_structure(d, args.nu, config.tolerance)
    return {
        "nu": args.nu,
        "rank": cl.rank,
        "filtration_dimension": cl.pieces[(1, 0)].cols,
        "pieces": ser.classical_to_json(cl)["pieces"],
    }, True


@command("qsv", "characters", NU)
def cmd_qsv_characters(args, config):
    d = ser.datum_from_json(_load_input(args))
    chars = sh.character_decompose(d, args.nu)
    payload = {
        "nu": args.nu,
        "characters": [
            {"character": list(chi), "rank": basis.rows, "basis": basis.to_json()}
            for chi, basis in sorted(chars.items())
        ],
    }
    return payload, True


@command("qsv", "jacobian", NU, flag("--height-bound", default=8))
def cmd_qsv_jacobian(args, config):
    d = ser.datum_from_json(_load_input(args))
    res = sh.plectic_jacobian_qsv(d, args.nu, height_bound=args.height_bound,
                                  tol=config.tolerance)
    payload = {
        "nu": args.nu,
        "torus": ser.torus_to_json(res.torus),
        "certificates": [
            {"character": list(chi), "certificate": ser.certificate_to_json(cert)}
            for chi, cert in sorted(res.certificates.items())
        ],
        "skipped": [list(chi) for chi in res.skipped],
    }
    return payload, True


def _aj_inputs(args):
    obj = _load_input(args)
    with reading("aj input"):
        datum = obj["datum"]
    d = ser.quotient_datum_from_json(datum)
    c = ser.cycle_from_json(obj["cycle"]) if "cycle" in obj else None
    return d, c


@command("aj", "compute", NU)
def cmd_aj_compute(args, config):
    d, c = _aj_inputs(args)
    if c is None:
        raise InputError("aj compute needs a cycle")
    point = aj.abel_jacobi(d, c, args.nu)
    payload = {
        "nu": args.nu,
        "functional": [ser.complex_to_json(v) for v in point.functional.coordinates],
        "reduced": [ser.complex_to_json(v) for v in point.reduced],
        "lattice_coords": list(point.lattice_coords),
    }
    return payload, True


@command("aj", "periods", NU)
def cmd_aj_periods(args, config):
    d, _ = _aj_inputs(args)
    lat = aj.period_lattice(d, args.nu)
    payload = {
        "nu": args.nu,
        "rank": lat.rank,
        "generators": [[ser.complex_to_json(v) for v in g] for g in lat.generators],
    }
    return payload, True


@command("aj", "theorem-b", NU, flag("--trials", default=10))
def cmd_aj_theorem_b(args, config):
    d, c = _aj_inputs(args)
    if c is None:
        raise InputError("aj theorem-b needs a cycle")
    rep = aj.theorem_b_harness(d, c, args.nu, args.trials, config.seed, config.tolerance)
    modes = []
    for m in (rep.diagonal, rep.factorwise):
        modes.append({
            "mode": m.mode,
            "trials": m.trials,
            "max_residual": repr(m.max_residual),
            "memberships": list(m.memberships),
            "membership_failures": m.membership_failures,
        })
    # the diagonal mode must be invariant; single-factor relifts must land
    # in the classical period lattice; for n >= 2 the factorwise verdicts
    # are experimental output and do not gate the exit code
    passed = rep.diagonal.membership_failures == 0
    if d.n == 1:
        passed = passed and rep.factorwise.membership_failures == 0
    payload = {"nu": args.nu, "trials": args.trials, "modes": modes}
    return payload, passed


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--precision", type=int, default=None,
                   help="working precision in binary digits (default 128, "
                        f"or ${ENV_PRECISION})")
    p.add_argument("--tolerance", type=str, default=None,
                   help="override the default tolerance 2^(-precision/2)")
    p.add_argument("--truncation", type=int, default=1,
                   help="Fourier truncation for flat-torus spaces")
    p.add_argument("--seed", type=int, default=0, help="deterministic seed")
    p.add_argument("--input", type=str, default=None, help="input JSON file")
    p.add_argument("--output", type=str, default=None,
                   help="report destination (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per declared subcommand, in declaration order."""
    parser = argparse.ArgumentParser(
        prog="plectic",
        description="Plectic Hodge structures, RM tori, refined Hodge "
                    "identities, and plectic Abel-Jacobi maps.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    commands = {}
    for (group, name), flags in _FLAGS.items():
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(dest="command",
                                                                      required=True)
        p = commands[group].add_parser(name)
        _common_flags(p)
        for option, kwargs in flags:
            p.add_argument(option, **kwargs)
    return parser


def _emit(report: dict, output: str | None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        precision = args.precision
        if precision is None:
            precision = int(os.environ.get(ENV_PRECISION, cfg.DEFAULT_PRECISION))
        tolerance = mp.mpf(args.tolerance) if args.tolerance else None
        cfg.set_precision(precision)  # a ValueError below 53 bits
        if tolerance is None:
            tolerance = cfg.default_tolerance()
        # every check reports a residual of 1 or more for a structure that
        # fails outright, so a tolerance of 1 or more certifies nothing
        elif not 0 < tolerance < 1:
            raise InputError("tolerance must be finite and strictly between 0 and 1")
        config = GlobalConfig(precision, tolerance, args.truncation, args.seed, args.output)
        handler = HANDLERS[(args.group, args.command)]
        payload, passed = handler(args, config)
    except (PlecticError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    report = {
        "schema": SCHEMA_VERSION,
        "command": f"{args.group}.{args.command}",
        "config": config.echo(),
        "pass": bool(passed),
        "payload": payload,
    }
    _emit(report, config.output)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
