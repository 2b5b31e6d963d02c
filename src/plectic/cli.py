"""Batch command-line front end: JSON in, JSON report out.

Exit codes: 0 on pass/success, 1 on a failed check, 2 on input errors.
Identical inputs and configuration produce byte-identical reports.
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
from .errors import InputError, PlecticError
from .numberfields import FieldOrder, FractionalIdealRep
from .schemas import SCHEMA_VERSION
from .serialize import real_to_json

ENV_PRECISION = "PLECTIC_PRECISION"


@dataclass
class GlobalConfig:
    """Numeric configuration echoed into every report."""

    precision: int = cfg.DEFAULT_PRECISION
    tolerance: mp.mpf | None = None
    truncation: int = 1
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        if self.precision < 53:
            raise InputError("precision must be at least 53 binary digits")
        # every check reports a residual of 1 or more for a structure that
        # fails outright, so a tolerance of 1 or more certifies nothing
        if self.tolerance is not None and not 0 < self.tolerance < 1:
            raise InputError("tolerance must be finite and strictly between 0 and 1")

    def resolved_tolerance(self) -> mp.mpf:
        if self.tolerance is not None:
            return self.tolerance
        return cfg.default_tolerance()

    def echo(self) -> dict:
        return {
            "precision": self.precision,
            "tolerance": real_to_json(self.resolved_tolerance()),
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
# handlers: return (payload, passed)
# ----------------------------------------------------------------------


def cmd_phs_validate(args, config):
    h = ser.phs_from_json(_load_input(args))
    rep = hg.validate(h, config.resolved_tolerance())
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


def cmd_phs_refine(args, config):
    h = ser.phs_from_json(_load_input(args))
    cl = hg.refine_to_classical(h)
    return {"rank": cl.rank, "pieces": ser.classical_to_json(cl)["pieces"]}, True


def cmd_phs_filtration(args, config):
    h = ser.phs_from_json(_load_input(args))
    F = hg.hodge_filtration(h, args.index)
    return {
        "index": args.index,
        "dimension": F.cols,
        "basis": ser.matrix_to_json(F),
    }, True


def cmd_phs_tensor(args, config):
    obj = _load_input(args)
    try:
        a = ser.phs_from_json(obj["a"])
        b = ser.phs_from_json(obj["b"])
    except KeyError as exc:
        raise InputError(f"tensor input needs keys a and b: missing {exc}") from exc
    t = hg.tensor(a, b)
    rep = hg.validate(t, config.resolved_tolerance())
    return {"structure": ser.phs_to_json(t), "valid": rep.passed}, rep.passed


def cmd_phs_jacobian(args, config):
    h = ser.phs_from_json(_load_input(args))
    torus = hg.plectic_jacobian(h, args.index)
    return {"index": args.index, "torus": ser.torus_to_json(torus)}, True


def cmd_torus_dual(args, config):
    t = ser.torus_from_json(_load_input(args))
    return {"torus": ser.torus_to_json(tr.dual_torus(t))}, True


def cmd_torus_endos(args, config):
    t = ser.torus_from_json(_load_input(args))
    endos = tr.endomorphisms(t, args.height_bound)
    return {
        "height_bound": args.height_bound,
        "rank": len(endos),
        "basis": [N.to_json() for N, _ in endos],
        "multipliers": [ser.matrix_to_json(M) for _, M in endos],
    }, True


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


def cmd_torus_rm_construct(args, config):
    obj = _load_input(args)
    try:
        field = FieldOrder.from_json(obj["field"])
        z = [ser.complex_from_json(c) for c in obj["z"]]
    except KeyError as exc:
        raise InputError(f"rm-construct input: missing {exc}") from exc
    except TypeError as exc:
        raise InputError(f"rm-construct input: {exc}") from exc
    ideal = FractionalIdealRep.from_json(field, obj["ideal"]) if "ideal" in obj else None
    torus = tr.construct_rm_torus(field, z, ideal)
    return {"torus": ser.torus_to_json(torus)}, True


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
    res = tr.algebraize_rm(t2, rm2, tol=config.resolved_tolerance())
    payload = {
        "z": [ser.complex_to_json(c) for c in res.z],
        "ideal": res.ideal.to_json(),
        "field": rm2.field.to_json(),
        "iso": ser.matrix_to_json(res.iso),
        "residual": real_to_json(res.residual),
    }
    return payload, bool(res.residual < config.resolved_tolerance() * 1000)


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


def cmd_flat_extract_phs(args, config):
    from . import flat as fl

    space = _flat_space(args, config)
    phs = fl.extract_plectic_structure(space, args.degree)
    return {"degree": args.degree, "structure": ser.phs_to_json(phs)}, True


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


def cmd_qsv_build(args, config):
    d = ser.datum_from_json(_load_input(args))
    phs = sh.build_plectic_from_frobenii(d, config.resolved_tolerance())
    rep = hg.validate(phs, config.resolved_tolerance())
    payload = {
        "structure": ser.phs_to_json(phs),
        "validation": {
            "passed": rep.passed,
            "span_defect": real_to_json(rep.span_defect),
            "conjugation_residual": real_to_json(rep.conjugation_residual),
        },
    }
    return payload, rep.passed


def _cup_from_json(c) -> sh.CupOperator:
    if not isinstance(c, dict):
        raise InputError(f"strongly-primitive input: a cup must be an object, not {c!r}")
    nu = c["nu"]
    if isinstance(nu, bool) or not isinstance(nu, int):
        raise InputError(f"strongly-primitive input: cup nu must be an integer, not {nu!r}")
    return sh.CupOperator(nu, ser.int_rows_from_json(c["matrix"]),
                          ser.phs_from_json(c["target"]))


def cmd_qsv_strongly_primitive(args, config):
    obj = _load_input(args)
    cups = obj.get("cups", [])
    if not isinstance(cups, list):
        raise InputError(f"strongly-primitive input: cups must be a list, not {cups!r}")
    try:
        h = ser.phs_from_json(obj["structure"])
        cups = [_cup_from_json(c) for c in cups]
    except KeyError as exc:
        raise InputError(f"strongly-primitive input: missing {exc}") from exc
    out = sh.strongly_primitive(h, cups, config.resolved_tolerance())
    return {"structure": ser.phs_to_json(out),
            "effective_weight_one": hg.is_effective_weight_one(out)}, True


def cmd_qsv_nu_structure(args, config):
    d = ser.datum_from_json(_load_input(args))
    cl = sh.nu_hodge_structure(d, args.nu, config.resolved_tolerance())
    return {
        "nu": args.nu,
        "rank": cl.rank,
        "filtration_dimension": cl.pieces[(1, 0)].cols,
        "pieces": ser.classical_to_json(cl)["pieces"],
    }, True


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


def cmd_qsv_jacobian(args, config):
    d = ser.datum_from_json(_load_input(args))
    res = sh.plectic_jacobian_qsv(d, args.nu, height_bound=args.height_bound,
                                  tol=config.resolved_tolerance())
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
    try:
        d = ser.quotient_datum_from_json(obj["datum"])
    except KeyError as exc:
        raise InputError(f"input needs a datum: missing {exc}") from exc
    c = ser.cycle_from_json(obj["cycle"]) if "cycle" in obj else None
    return d, c


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


def cmd_aj_periods(args, config):
    d, _ = _aj_inputs(args)
    lat = aj.period_lattice(d, args.nu)
    payload = {
        "nu": args.nu,
        "rank": lat.rank,
        "generators": [[ser.complex_to_json(v) for v in g] for g in lat.generators],
    }
    return payload, True


def cmd_aj_theorem_b(args, config):
    d, c = _aj_inputs(args)
    if c is None:
        raise InputError("aj theorem-b needs a cycle")
    rep = aj.theorem_b_harness(d, c, args.nu, args.trials, config.seed,
                               config.resolved_tolerance())
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


HANDLERS = {
    ("phs", "validate"): cmd_phs_validate,
    ("phs", "refine"): cmd_phs_refine,
    ("phs", "filtration"): cmd_phs_filtration,
    ("phs", "tensor"): cmd_phs_tensor,
    ("phs", "jacobian"): cmd_phs_jacobian,
    ("torus", "dual"): cmd_torus_dual,
    ("torus", "endos"): cmd_torus_endos,
    ("torus", "rm-detect"): cmd_torus_rm_detect,
    ("torus", "rm-construct"): cmd_torus_rm_construct,
    ("torus", "rm-algebraize"): cmd_torus_rm_algebraize,
    ("flat", "verify-identities"): cmd_flat_verify_identities,
    ("flat", "verify-laplacian"): cmd_flat_verify_laplacian,
    ("flat", "harmonic"): cmd_flat_harmonic,
    ("flat", "extract-phs"): cmd_flat_extract_phs,
    ("flat", "metric-independence"): cmd_flat_metric_independence,
    ("qsv", "build"): cmd_qsv_build,
    ("qsv", "strongly-primitive"): cmd_qsv_strongly_primitive,
    ("qsv", "nu-structure"): cmd_qsv_nu_structure,
    ("qsv", "characters"): cmd_qsv_characters,
    ("qsv", "jacobian"): cmd_qsv_jacobian,
    ("aj", "compute"): cmd_aj_compute,
    ("aj", "periods"): cmd_aj_periods,
    ("aj", "theorem-b"): cmd_aj_theorem_b,
}


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
    parser = argparse.ArgumentParser(
        prog="plectic",
        description="Plectic Hodge structures, RM tori, refined Hodge "
                    "identities, and plectic Abel-Jacobi maps.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    def sub(group, name, **extra_args):
        p = group.add_parser(name)
        _common_flags(p)
        for flag, kw in extra_args.items():
            p.add_argument(flag, **kw)
        return p

    phs = parser_group(groups, "phs")
    sub(phs, "validate")
    sub(phs, "refine")
    p = phs.add_parser("filtration"); _common_flags(p)
    p.add_argument("--index", type=int, required=True)
    sub(phs, "tensor")
    p = phs.add_parser("jacobian"); _common_flags(p)
    p.add_argument("--index", type=int, required=True)

    torus = parser_group(groups, "torus")
    sub(torus, "dual")
    for name in ("endos", "rm-detect"):
        p = torus.add_parser(name); _common_flags(p)
        p.add_argument("--height-bound", type=int, default=5)
    sub(torus, "rm-construct")
    p = torus.add_parser("rm-algebraize"); _common_flags(p)
    p.add_argument("--height-bound", type=int, default=10)

    flat = parser_group(groups, "flat")
    for name in ("verify-identities", "verify-laplacian"):
        p = flat.add_parser(name); _common_flags(p)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--weights", type=str, default=None)
    p = flat.add_parser("harmonic"); _common_flags(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--weights", type=str, default=None)
    p.add_argument("--alpha", type=str, required=True)
    p.add_argument("--beta", type=str, required=True)
    p = flat.add_parser("extract-phs"); _common_flags(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--weights", type=str, default=None)
    p.add_argument("--degree", type=int, required=True)
    p = flat.add_parser("metric-independence"); _common_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights-a", type=str, default=None)
    p.add_argument("--weights-b", type=str, default=None)

    qsv = parser_group(groups, "qsv")
    sub(qsv, "build")
    sub(qsv, "strongly-primitive")
    for name in ("nu-structure", "characters"):
        p = qsv.add_parser(name); _common_flags(p)
        p.add_argument("--nu", type=int, required=True)
    p = qsv.add_parser("jacobian"); _common_flags(p)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--height-bound", type=int, default=8)

    ajg = parser_group(groups, "aj")
    for name in ("compute", "periods"):
        p = ajg.add_parser(name); _common_flags(p)
        p.add_argument("--nu", type=int, required=True)
    p = ajg.add_parser("theorem-b"); _common_flags(p)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)

    return parser


def parser_group(groups, name):
    g = groups.add_parser(name)
    return g.add_subparsers(dest="command", required=True)


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
        config = GlobalConfig(
            precision=precision,
            tolerance=mp.mpf(args.tolerance) if args.tolerance else None,
            truncation=args.truncation,
            seed=args.seed,
            output=args.output,
        )
        cfg.set_precision(config.precision)
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
