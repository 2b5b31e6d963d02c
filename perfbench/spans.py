"""Span tracing of the plectic modules from outside, and the per-layer
metrics computed from the spans.

`Tracer.install()` replaces every function defined in a traced module by a
wrapper that records one span per call, and rebinds every name that held
the original: module globals (`from .lattices import ...` copies included),
dicts held in module globals (the CLI's handler table) and methods on the
classes the modules define.  Four calls out of the package get spans too:
mpmath's `svd`, sympy's `charpoly`, scipy's `lsmr` and argparse's
`parse_args`.  Generator functions are left alone, because a wrapper would
time only the creation of the generator.

A span is `(name_id, parent_index, start, end, extra)`; `extra` holds the
size a metric needs (LLL rows, Smith-form entry bits, SVD dimension, LSMR
iterations, Laplacian nnz and bytes, skipped characters), or None.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time

LAYERS = ("cli", "serialize", "lattices", "numberfields", "tori", "cxlinalg",
          "hodge", "flat", "shimura", "abeljacobi")


def _lll_rows(args, kwargs, result):
    return len(args[0])


def _snf_bits(args, kwargs, result):
    return max((abs(x).bit_length() for m in result for row in m.entries for x in row),
               default=0)


def _svd_dim(args, kwargs, result):
    return max(args[0].rows, args[0].cols)


def _lsmr_iterations(args, kwargs, result):
    return int(result[2])


def _laplacian_size(args, kwargs, result):
    m = result.matrix
    return (m.nnz, m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _skipped(args, kwargs, result):
    return len(result.skipped)


UNITS = {"_s": "s", "_calls": "count", "_dets": "count", "_iterations": "count",
         "_nnz": "count", "_characters": "count", "_per_answer": "count/answer",
         "_dim_max": "dim", "_bits_max": "bits", "_mb": "MB-computed"}


def unit_of(metric):
    return next(u for suffix, u in UNITS.items() if metric.endswith(suffix))


# span name -> size recorded with the span
EXTRAS = {
    "lattices.lll_reduce": _lll_rows,
    "lattices.smith_normal_form": _snf_bits,
    "ext.mpmath.svd": _svd_dim,
    "ext.scipy.lsmr": _lsmr_iterations,
    "flat.laplacian_d": _laplacian_size,
    "shimura.plectic_jacobian_qsv": _skipped,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        extra_of = EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, parent, start, end, None)
            if extra_of is not None:
                spans[idx] = (nid, parent, start, end, extra_of(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A benchmark-side span (a job or a round)."""
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, parent, start, end, None)

    def install(self, package):
        import argparse

        import mpmath
        import scipy.sparse.linalg
        import sympy

        modules = {short: getattr(package, short) for short in LAYERS}
        originals = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not inspect.isgeneratorfunction(obj):
                    originals[id(obj)] = self.wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, f"{short}.{attr}")
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in originals:
                            obj[key] = originals[id(val)]
        mpmath.mp.svd = self.wrap(mpmath.mp.svd, "ext.mpmath.svd")
        matrix_cls = type(sympy.Matrix([[1]]))
        matrix_cls.charpoly = self.wrap(matrix_cls.charpoly, "ext.sympy.charpoly")
        scipy.sparse.linalg.lsmr = self.wrap(scipy.sparse.linalg.lsmr, "ext.scipy.lsmr")
        argparse.ArgumentParser.parse_args = self.wrap(argparse.ArgumentParser.parse_args,
                                                       "ext.argparse.parse_args")

    def _wrap_methods(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr not in ("__init__", "__post_init__"):
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(obj.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self.wrap(obj, f"{prefix}.{attr}"))

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (nid, parent, start, end, extra) in enumerate(self.spans):
                rec = {"id": i, "name": self.names[nid], "parent": parent,
                       "start": start, "end": end}
                if extra is not None:
                    rec["extra"] = extra
                fh.write(json.dumps(rec) + "\n")


def round_metrics(tracer, first, last):
    """Per-layer metrics over spans[first:last], which must hold exactly
    the spans of one round (its root span first)."""
    spans = tracer.spans[first:last]
    names = tracer.names
    parent = [s[1] - first if s[1] >= first else -1 for s in spans]
    child = [0.0] * len(spans)
    count, time_in, under = {}, {}, {}
    for i, (nid, _, start, end, _) in enumerate(spans):
        d = end - start
        count[nid] = count.get(nid, 0) + 1
        time_in[nid] = time_in.get(nid, 0.0) + d
        p = parent[i]
        if p >= 0:
            child[p] += d
            key = (nid, spans[p][0])
            under[key] = under.get(key, 0) + 1
    ids = {n: i for i, n in enumerate(names)}
    layer_of = [n.split(".", 1)[0] for n in names]

    def total(name):
        return time_in.get(ids.get(name), 0.0)

    def calls(name, parent_name=None):
        if parent_name is None:
            return count.get(ids.get(name), 0)
        return under.get((ids.get(name), ids.get(parent_name)), 0)

    def outer_total(selected):
        # time of spans in `selected` with no ancestor in `selected`
        chosen = {i for i, n in enumerate(names) if selected(n)}
        out = 0.0
        for i, s in enumerate(spans):
            if s[0] not in chosen:
                continue
            p = parent[i]
            while p >= 0 and spans[p][0] not in chosen:
                p = parent[p]
            if p < 0:
                out += s[3] - s[2]
        return out

    def extras(name):  # sizes recorded with the spans; a call that raised has none
        nid = ids.get(name)
        return [s[4] for s in spans if s[0] == nid and s[4] is not None]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{lay}.self_s": 0.0 for lay in LAYERS}
    for i, s in enumerate(spans):
        key = f"{layer_of[s[0]]}.self_s"
        if key in m:
            m[key] += s[3] - s[2] - child[i]
    m["cli.parse_s"] = total("cli.build_parser") + total("ext.argparse.parse_args")
    m["cli.handler_s"] = sum(time_in.get(i, 0.0) for i, n in enumerate(names)
                             if n.startswith("cli.cmd_"))
    m["cli.emit_s"] = total("cli._emit")
    m["serialize.load_s"] = outer_total(
        lambda n: n.startswith("serialize.") and n.endswith("_from_json"))
    m["serialize.dump_s"] = outer_total(
        lambda n: n.startswith("serialize.") and n.endswith("_to_json"))
    lll = extras("lattices.lll_reduce")
    snf = extras("lattices.smith_normal_form")
    m.update({
        "lattices.lll_calls": calls("lattices.lll_reduce"),
        "lattices.lll_s": total("lattices.lll_reduce"),
        "lattices.lll_dim_max": max(lll, default=0),
        "lattices.snf_calls": calls("lattices.smith_normal_form"),
        "lattices.snf_s": total("lattices.smith_normal_form"),
        "lattices.snf_bits_max": max(snf, default=0),
        "lattices.solve_integer_calls": calls("lattices.solve_integer"),
    })
    principal = calls("numberfields.FractionalIdealRep.is_principal")
    m.update({
        "numberfields.is_principal_calls": principal,
        "numberfields.is_principal_s": total("numberfields.FractionalIdealRep.is_principal"),
        "numberfields.norm_calls": calls("numberfields.FieldOrder.norm"),
        "numberfields.norms_per_answer": ratio(
            calls("numberfields.FieldOrder.norm", "numberfields.FractionalIdealRep.is_principal"),
            principal),
    })
    answers = calls("tori.detect_rm") + calls("tori.tori_isomorphic")
    candidates = (calls("lattices.IntMatrix.is_zero", "tori.detect_rm")
                  + calls("lattices.IntMatrix.det", "tori.tori_isomorphic"))
    m.update({
        "tori.hom_lattice_calls": calls("tori.hom_lattice"),
        "tori.hom_lattice_s": total("tori.hom_lattice"),
        "tori.detect_rm_s": total("tori.detect_rm"),
        "tori.min_poly_calls": calls("tori._min_poly"),
        "tori.min_poly_s": total("tori._min_poly"),
        "tori.isomorphic_s": total("tori.tori_isomorphic"),
        "tori.isomorphic_dets": calls("lattices.IntMatrix.det", "tori.tori_isomorphic"),
        "tori.candidates_per_answer": ratio(candidates, answers),
        "tori.algebraize_s": total("tori.algebraize_rm"),
    })
    svd = extras("ext.mpmath.svd")
    m.update({
        "cxlinalg.svd_calls": calls("ext.mpmath.svd"),
        "cxlinalg.svd_s": total("ext.mpmath.svd"),
        "cxlinalg.svd_dim_max": max(svd, default=0),
        "hodge.validate_calls": calls("hodge.validate"),
        "hodge.validate_s": total("hodge.validate"),
        "hodge.jacobian_s": total("hodge.plectic_jacobian"),
    })
    operators = {"flat.xi_operator", "flat.xi_bar_operator", "flat.e_operator",
                 "flat.partial_operator", "flat.partial_bar_operator", "flat.del_operator",
                 "flat.delbar_operator", "flat.d_operator", "flat.hodge_star", "flat.adjoint"}
    lap = extras("flat.laplacian_d")
    m.update({
        "flat.build_space_s": outer_total(lambda n: n == "flat.FourierFormSpace.__init__"),
        "flat.assembly_s": outer_total(lambda n: n in operators),
        "flat.laplacian_d_s": outer_total(lambda n: n == "flat.laplacian_d"),
        "flat.verify_s": (total("flat.verify_refined_identities")
                          + total("flat.verify_laplacian_sum")
                          + total("flat.metric_independence_check")),
        "flat.harmonic_s": outer_total(lambda n: n == "flat.harmonic_space"),
        "flat.lsmr_s": total("ext.scipy.lsmr"),
        "flat.lsmr_iterations": sum(extras("ext.scipy.lsmr")),
        "flat.laplacian_nnz": max((nnz for nnz, _ in lap), default=0),
        "flat.operator_mb": max((b for _, b in lap), default=0) / 1e6,
        "shimura.build_s": total("shimura.build_plectic_from_frobenii"),
        "shimura.qsv_jacobian_s": total("shimura.plectic_jacobian_qsv"),
        "shimura.skipped_characters": sum(extras("shimura.plectic_jacobian_qsv")),
        "abeljacobi.harness_s": total("abeljacobi.theorem_b_harness"),
        "abeljacobi.reduce_calls": calls("abeljacobi.PeriodLatticeData.reduce"),
    })
    return m


def median_metrics(per_round):
    """Median over rounds of each metric; counts repeat exactly because
    every round runs the same inputs."""
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
