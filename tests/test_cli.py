import contextlib
import copy
import io
import json
import pathlib
import time

import jsonschema
import mpmath as mp
import pytest

import test_acceptance
import test_shimura
import test_tori

import plectic.serialize as ser
from plectic import cxlinalg as cx
from plectic.cli import HANDLERS, main
from plectic.config import set_precision
from plectic.hodge import elliptic_h1, tensor
from plectic.lattices import IntMatrix
from plectic.numberfields import FieldOrder
from plectic.schemas import known_commands, report_schema
from plectic.shimura import strongly_primitive


def write_fixtures(root):
    """Write the input file of every subcommand under `root` (a pathlib.Path)
    at the working precision; returns file name -> path."""
    paths = {}

    def dump(name, obj):
        p = root / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    tau = mp.mpc("0.3", "1.7")
    h = elliptic_h1(1, tau)
    dump("phs.json", ser.phs_to_json(h))
    t12 = tensor(h, elliptic_h1(1, mp.mpc("-0.2", "0.9")))
    dump("phs2.json", ser.phs_to_json(t12))
    dump("pair.json", {"a": ser.phs_to_json(h),
                       "b": ser.phs_to_json(elliptic_h1(1, mp.mpc("-0.2", "0.9")))})

    import plectic.hodge as hg

    bad = hg.PlecticHodgeStructure(1, 2, {
        hg.Bidegree((1,), (0,)): cx.mpm([[1], [tau]]),
        hg.Bidegree((0,), (1,)): cx.mpm([[1], [mp.mpc("0.5", "0.9")]]),
    })
    dump("phs_bad.json", ser.phs_to_json(bad))

    from plectic.tori import ComplexTorus, construct_rm_torus

    E = ComplexTorus(1, cx.mpm([[1, tau]]))
    dump("torus.json", ser.torus_to_json(E))
    O5 = FieldOrder.quadratic_maximal(5)
    T5 = construct_rm_torus(O5, [mp.mpc("0.13", "1.07"), mp.mpc("-0.4", "0.83")])
    dump("torus_rm.json", ser.torus_to_json(T5))
    dump("rm_construct.json", {
        "field": O5.to_json(),
        "z": [ser.complex_to_json(mp.mpc(0, 1)), ser.complex_to_json(mp.mpc(0, 2))],
    })

    from plectic.shimura import StronglyPrimitiveDatum

    flip = IntMatrix.from_rows([[1, 0], [0, -1]])
    i2 = IntMatrix.identity(2)
    W = cx.kron(cx.mpm([[1], [mp.mpc(0, 1)]]), cx.mpm([[1], [mp.mpc(0, 1)]]))
    d2 = StronglyPrimitiveDatum(2, (flip.kron(i2), i2.kron(flip)), W)
    dump("datum.json", ser.datum_to_json(d2))

    target = hg.PlecticHodgeStructure(2, 2, {
        hg.Bidegree((1, 0), (1, 0)): cx.mpm([[1, 0], [0, 1]]),
    })
    dump("sp.json", {
        "structure": ser.phs_to_json(t12),
        "cups": [{"nu": 1, "matrix": [[0, 0, 0, 0], [0, 0, 0, 0]],
                  "target": ser.phs_to_json(target)}],
    })

    from plectic.abeljacobi import PlecticCycle, QuotientDatum

    qd = QuotientDatum(((1, mp.mpc(0, 1)), (1, mp.mpc(0, 1))))
    cyc = PlecticCycle.elementary([(mp.mpc("0.3", "0.7"), mp.mpc("0.1", "0")),
                                   (mp.mpc(0, "0.2"), mp.mpc("0.5", "0"))])
    dump("aj.json", {"datum": ser.quotient_datum_to_json(qd),
                     "cycle": ser.cycle_to_json(cyc)})
    qd1 = QuotientDatum(((1, tau),))
    cyc1 = PlecticCycle.elementary([(mp.mpc("0.3", "0.7"), mp.mpc("0.1", "0"))])
    dump("aj1.json", {"datum": ser.quotient_datum_to_json(qd1),
                      "cycle": ser.cycle_to_json(cyc1)})

    (root / "malformed.json").write_text("{ not json")
    paths["malformed.json"] = str(root / "malformed.json")
    return paths


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """Input files for every subcommand."""
    set_precision(128)
    return write_fixtures(tmp_path_factory.mktemp("cli"))


COMMANDS = [
    ("phs.validate", lambda f: ["phs", "validate", "--input", f["phs.json"]]),
    ("phs.refine", lambda f: ["phs", "refine", "--input", f["phs2.json"]]),
    ("phs.filtration", lambda f: ["phs", "filtration", "--input", f["phs2.json"],
                                  "--index", "1"]),
    ("phs.tensor", lambda f: ["phs", "tensor", "--input", f["pair.json"]]),
    ("phs.jacobian", lambda f: ["phs", "jacobian", "--input", f["phs2.json"],
                                "--index", "1"]),
    ("torus.dual", lambda f: ["torus", "dual", "--input", f["torus.json"]]),
    ("torus.endos", lambda f: ["torus", "endos", "--input", f["torus.json"],
                               "--height-bound", "3"]),
    ("torus.rm-detect", lambda f: ["torus", "rm-detect", "--input", f["torus_rm.json"],
                                   "--height-bound", "6"]),
    ("torus.rm-construct", lambda f: ["torus", "rm-construct", "--input",
                                      f["rm_construct.json"]]),
    ("torus.rm-algebraize", lambda f: ["torus", "rm-algebraize", "--input",
                                       f["torus_rm.json"]]),
    ("flat.verify-identities", lambda f: ["flat", "verify-identities", "--n", "2",
                                          "--truncation", "1"]),
    ("flat.verify-laplacian", lambda f: ["flat", "verify-laplacian", "--n", "2",
                                         "--truncation", "1"]),
    ("flat.harmonic", lambda f: ["flat", "harmonic", "--n", "2", "--truncation", "1",
                                 "--alpha", "1,0", "--beta", "0,1"]),
    ("flat.extract-phs", lambda f: ["flat", "extract-phs", "--n", "1",
                                    "--truncation", "1", "--degree", "1"]),
    ("flat.metric-independence", lambda f: ["flat", "metric-independence", "--n", "2",
                                            "--truncation", "1",
                                            "--weights-a", "1,1",
                                            "--weights-b", "0.5,2.0"]),
    ("qsv.build", lambda f: ["qsv", "build", "--input", f["datum.json"]]),
    ("qsv.strongly-primitive", lambda f: ["qsv", "strongly-primitive", "--input",
                                          f["sp.json"]]),
    ("qsv.nu-structure", lambda f: ["qsv", "nu-structure", "--input", f["datum.json"],
                                    "--nu", "1"]),
    ("qsv.characters", lambda f: ["qsv", "characters", "--input", f["datum.json"],
                                  "--nu", "1"]),
    ("qsv.jacobian", lambda f: ["qsv", "jacobian", "--input", f["datum.json"],
                                "--nu", "1"]),
    ("aj.compute", lambda f: ["aj", "compute", "--input", f["aj.json"], "--nu", "1"]),
    ("aj.periods", lambda f: ["aj", "periods", "--input", f["aj.json"], "--nu", "1"]),
    ("aj.theorem-b", lambda f: ["aj", "theorem-b", "--input", f["aj1.json"],
                                "--nu", "1", "--trials", "5", "--seed", "11"]),
]


def run(argv):
    """Exit code and standard output of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("command,argv_fn", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_subcommand_passes_and_validates(command, argv_fn, fixtures):
    code, out = run(argv_fn(fixtures))
    assert code == 0
    report = json.loads(out)
    assert report["command"] == command
    assert report["config"]["precision"] == 128
    jsonschema.validate(report, report_schema(command))


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("command,argv_fn", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_report_matches_golden(command, argv_fn, fixtures):
    """Every report against the committed one (regenerate with
    tests/golden/regen.py), byte for byte: the `flat` numbers are exact
    rationals or rounded once from an mpmath sum, and every other report is
    mpmath and exact integer arithmetic."""
    code, out = run(argv_fn(fixtures))
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[command]
    assert out == (GOLDEN / f"{command}.json").read_text()


def test_all_published_schemas_are_exercised():
    assert {c for c, _ in COMMANDS} == set(known_commands())
    assert {f"{group}.{name}" for group, name in HANDLERS} == set(known_commands())


def test_reports_are_byte_identical(fixtures):
    argv = ["aj", "theorem-b", "--input", fixtures["aj.json"], "--nu", "1",
            "--trials", "6", "--seed", "3"]
    _, out1 = run(argv)
    _, out2 = run(argv)
    assert out1 == out2
    argv2 = ["flat", "verify-identities", "--n", "2", "--truncation", "1"]
    _, out3 = run(argv2)
    _, out4 = run(argv2)
    assert out3 == out4


def test_check_failure_exits_one(fixtures):
    code, out = run(["phs", "validate", "--input", fixtures["phs_bad.json"]])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert float(report["payload"]["conjugation_residual"]) > 0.1


def test_malformed_json_exits_two(fixtures, capsys):
    code = main(["phs", "validate", "--input", fixtures["malformed.json"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err and "column" in err


def test_missing_input_exits_two(capsys):
    code = main(["phs", "validate"])
    assert code == 2


def test_env_precision_override(fixtures, monkeypatch):
    monkeypatch.setenv("PLECTIC_PRECISION", "160")
    code, out = run(["phs", "validate", "--input", fixtures["phs.json"]])
    assert code == 0
    assert json.loads(out)["config"]["precision"] == 160
    # an explicit flag wins over the environment
    code, out = run(["phs", "validate", "--input", fixtures["phs.json"],
                     "--precision", "96"])
    assert json.loads(out)["config"]["precision"] == 96
    monkeypatch.delenv("PLECTIC_PRECISION")
    set_precision(128)


def test_output_file(fixtures, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(["phs", "validate", "--input", fixtures["phs.json"],
                 "--output", str(dest)])
    assert code == 0
    report = json.loads(dest.read_text())
    assert report["pass"] is True


@pytest.mark.parametrize("argv", [
    ["aj", "compute", "--nu", "1"],
    ["aj", "periods", "--nu", "1"],
    ["phs", "tensor"],
    ["torus", "rm-construct"],
    ["qsv", "strongly-primitive"],
], ids=lambda argv: ".".join(argv[:2]))
def test_top_level_array_exits_two(argv, tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    code = main(argv + ["--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", [
    1,
    {"degree": 2, "min_poly": [1, 0, -2],
     "integral_basis_mult_table": [[[1, 0], [0, 1]], [[0, 1], [2]]]},
], ids=["not-an-object", "ragged-table"])
def test_bad_field_json_exits_two(field, tmp_path, capsys):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"field": field, "z": []}))
    code = main(["torus", "rm-construct", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("document", [
    {"field": FieldOrder.quadratic_maximal(5).to_json(), "z": 3},
    {"field": FieldOrder.quadratic_maximal(5).to_json(),
     "z": [["0", "1"], ["0", "2"]], "ideal": 1},
], ids=["z-not-a-list", "ideal-not-an-object"])
def test_bad_rm_construct_json_exits_two(document, tmp_path, capsys):
    path = tmp_path / "rm.json"
    path.write_text(json.dumps(document))
    code = main(["torus", "rm-construct", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_missing_is_maximal_means_false(fixtures, tmp_path):
    doc = json.loads(pathlib.Path(fixtures["rm_construct.json"]).read_text())
    del doc["field"]["is_maximal"]
    path = tmp_path / "rm.json"
    path.write_text(json.dumps(doc))
    code, out = run(["torus", "rm-construct", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["payload"]["torus"]["rm"]["field"]["is_maximal"] is False


def test_ideal_basis_takes_json_integers(fixtures, tmp_path):
    doc = json.loads(pathlib.Path(fixtures["rm_construct.json"]).read_text())
    doc["ideal"] = {"basis": [[1, 0], [0, 1]]}
    path = tmp_path / "rm.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["torus", "rm-construct", "--input", str(path)])
    assert code == 0


def test_endos_decides_at_the_given_tolerance(tmp_path, capsys):
    """--tolerance reaches the endomorphism check: at 128 bits the
    multiplier residual of the Q(sqrt 5) torus's real multiplication is
    about 3e-43, which passes the default 2^-64 and fails 1e-50."""
    from plectic.tori import construct_rm_torus

    t = construct_rm_torus(FieldOrder.quadratic_maximal(5),
                           [mp.mpc("0.31", "1.17"), mp.mpc("-0.42", "0.83")])
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(ser.torus_to_json(t)))
    argv = ["torus", "endos", "--input", str(path), "--height-bound", "2"]
    assert run(argv)[0] == 0
    code, out = run(argv + ["--tolerance", "1e-50"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == "error: endomorphism candidate failed verification\n"


@pytest.mark.parametrize("bits", [64, 128, 192, 256, 512])
def test_endos_keeps_the_identity(bits, tmp_path):
    """CI's CM product, written at 128 bits: End has rank 4 up to 128 bits
    and rank 1 from 256, and never loses the identity (rank 0 at 192 bits
    before the identity was taken out of the relation search)."""
    path = tmp_path / "cm_product.json"
    path.write_text(json.dumps(test_tori.cm_product_json()))
    try:
        code, out = run(["torus", "endos", "--input", str(path), "--height-bound", "5",
                         "--precision", str(bits)])
    finally:
        set_precision(128)
    assert code == 0
    assert json.loads(out)["payload"]["rank"] >= 1


def _set_cups(cups):
    return lambda doc: doc.update(cups=cups)


def _set_nu(nu):
    return lambda doc: doc["cups"][0].update(nu=nu)


@pytest.mark.parametrize("mutate", [
    _set_cups(1), _set_cups("x"), _set_cups(None), _set_cups([[1]]), _set_cups([1]),
    _set_nu([]), _set_nu(None), _set_nu({}), _set_nu(1.5), _set_nu("1"), _set_nu(True),
], ids=["cups-int", "cups-string", "cups-null", "cup-list", "cup-int",
        "nu-list", "nu-null", "nu-object", "nu-float", "nu-string", "nu-bool"])
def test_malformed_cups_exit_two(mutate, fixtures, tmp_path, capsys):
    doc = json.loads(pathlib.Path(fixtures["sp.json"]).read_text())
    mutate(doc)
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(doc))
    code = main(["qsv", "strongly-primitive", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: strongly-primitive input:") and err.count("\n") == 1


def _replaced(doc, path, value):
    """A copy of a fixture document with the value at `path` replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("fixture,argv,path,value", [
    ("rm_construct.json", ["torus", "rm-construct"], ("field", "min_poly", 2), -1.5),
    ("rm_construct.json", ["torus", "rm-construct"], ("field", "degree"), 2.0),
    ("aj.json", ["aj", "compute", "--nu", "1"], ("cycle", "terms", 0, "coeff"), 1.7),
    ("aj.json", ["aj", "compute", "--nu", "1"], ("cycle", "terms", 0, "coeff"), 2.7),
    ("datum.json", ["qsv", "build"], ("frobenii", 0, 0, 0), 1.5),
    ("datum.json", ["qsv", "build"], ("frobenii", 0, 0, 0), 1.9),
    ("datum.json", ["qsv", "build"], ("frobenii", 0, 0, 0), "1"),
    ("datum.json", ["qsv", "build"], ("frobenii", 0, 0, 0), True),
    ("datum.json", ["qsv", "build"], ("r",), 2.5),
    ("torus.json", ["torus", "dual"], ("g",), 1.9),
    ("sp.json", ["qsv", "strongly-primitive"], ("cups", 0, "matrix", 0, 0), 0.4),
    ("phs.json", ["phs", "validate"], ("pieces", 0, "alpha", 0), True),
    ("torus_rm.json", ["torus", "rm-detect"], ("rm", "action", 1, "entries", 0), "0.5"),
    ("torus_rm.json", ["torus", "rm-detect"], ("rm", "action", 1, "rows"), 4.0),
], ids=["min-poly", "degree", "coeff-1.7", "coeff-2.7", "frobenius-1.5", "frobenius-1.9",
        "frobenius-string", "frobenius-true", "r", "g", "cup-matrix", "alpha-true",
        "action-entry", "action-rows"])
def test_non_integer_in_integer_field_exits_two(fixture, argv, path, value, fixtures,
                                                tmp_path, capsys):
    """An integer field takes a JSON integer (and, in the integer-matrix
    format, a decimal integer string); anything else is an input error,
    never truncated to an integer."""
    doc = json.loads(pathlib.Path(fixtures[fixture]).read_text())
    target = tmp_path / fixture
    target.write_text(json.dumps(_replaced(doc, path, value)))
    code, out = run(argv + ["--input", str(target)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("fixture,argv,path,value", [
    ("rm_construct.json", ["torus", "rm-construct"], ("field", "is_maximal"), "false"),
    ("rm_construct.json", ["torus", "rm-construct"], ("field", "is_maximal"), "true"),
    ("rm_construct.json", ["torus", "rm-construct"], ("field", "is_maximal"), 1),
    ("rm_construct.json", ["torus", "rm-construct"], ("field", "is_maximal"), None),
    ("torus.json", ["torus", "dual"], ("periods", 0, 0), [True, "0"]),
    ("torus.json", ["torus", "dual"], ("periods", 0, 0), [1.5, "0"]),
    ("torus.json", ["torus", "dual"], ("periods", 0, 0), [1, "0"]),
    ("rm_construct.json", ["torus", "rm-construct"], ("z", 0), ["0", 1]),
    ("rm_construct.json", ["torus", "rm-construct"], ("ideal",), {"basis": [[True, 0], [0, 1]]}),
    ("rm_construct.json", ["torus", "rm-construct"], ("ideal",), {"basis": [[1.0, 0], [0, 1]]}),
], ids=["maximal-string-false", "maximal-string-true", "maximal-one", "maximal-null",
        "period-true", "period-float", "period-int", "z-int", "ideal-true", "ideal-float"])
def test_wrong_json_type_exits_two(fixture, argv, path, value, fixtures, tmp_path, capsys):
    """is_maximal is a JSON boolean, a decimal a JSON string, and an
    ideal-basis entry a string or a JSON integer; anything else is an
    input error, never read by its truth value or as a number."""
    doc = json.loads(pathlib.Path(fixtures[fixture]).read_text())
    target = tmp_path / fixture
    target.write_text(json.dumps(_replaced(doc, path, value)))
    code, out = run(argv + ["--input", str(target)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


MUTANTS = [None, 1, 1.5, "x", [], {}, True, [[1]], ["1"]]


def _mutation_sites(doc):
    """The path to each value of each object and to each of the first two
    items of each list, recursively through those values and items."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:2])
    else:
        return
    for key, value in items:
        yield (key,)
        for path in _mutation_sites(value):
            yield (key,) + path


READERS = [(c, fn) for c, fn in COMMANDS if not c.startswith("flat.")]


@pytest.mark.parametrize("command,argv_fn", READERS, ids=[c for c, _ in READERS])
def test_mutated_input_never_escapes_main(command, argv_fn, fixtures, tmp_path):
    """The fixture of every subcommand that reads a file, with each
    mutation site replaced in turn by each of MUTANTS: main returns 0, 1
    or 2, prints exactly one error line on 2, and raises nothing."""
    argv = argv_fn(fixtures)
    at = argv.index("--input") + 1
    doc = json.loads(pathlib.Path(argv[at]).read_text())
    target = tmp_path / "mutant.json"
    argv[at] = str(target)
    for path in _mutation_sites(doc):
        for value in MUTANTS:
            target.write_text(json.dumps(_replaced(doc, path, value)))
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code, _ = run(argv)
            except Exception as exc:
                pytest.fail(f"{path} = {value!r} raised {exc!r}")
            err = err.getvalue()
            assert code in (0, 1, 2), (path, value, code)
            if code == 2:
                assert err.startswith("error:") and err.count("\n") == 1, (path, value, err)


@pytest.mark.parametrize("fixture,argv,mutate", [
    ("torus.json", ["torus", "dual"], lambda doc: doc["periods"][0][1].__setitem__(0, "1/0")),
    ("rm_construct.json", ["torus", "rm-construct"],
     lambda doc: doc.update(ideal={"basis": [["1/0", "0"], ["0", "1"]]})),
], ids=["period", "ideal-basis"])
def test_zero_denominator_exits_two(fixture, argv, mutate, fixtures, tmp_path, capsys):
    """A decimal or fraction "1/0" is an input error, not a ZeroDivisionError."""
    doc = json.loads(pathlib.Path(fixtures[fixture]).read_text())
    mutate(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    code = main(argv + ["--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def _zero_period(doc):
    doc["periods"][0][0] = ["0", "0"]


def _zero_w1(doc):
    doc["datum"]["factors"][0][0] = ["0", "0"]


def _ragged_basis(doc):
    doc["pieces"][0]["basis"][1] *= 2


@pytest.mark.parametrize("fixture,argv,mutate", [
    ("torus.json", ["torus", "dual"], _zero_period),
    ("aj.json", ["aj", "compute", "--nu", "1"], _zero_w1),
    ("phs.json", ["phs", "validate"], _ragged_basis),
    ("torus_rm.json", ["torus", "rm-detect"], lambda doc: doc.update(rm=1.5)),
    ("torus_rm.json", ["torus", "rm-detect"], lambda doc: doc["rm"].update(action=1.5)),
], ids=["zero-period", "zero-w1", "ragged-basis-row", "rm-not-an-object",
        "action-not-a-list"])
def test_degenerate_input_exits_two(fixture, argv, mutate, fixtures, tmp_path, capsys):
    doc = json.loads(pathlib.Path(fixtures[fixture]).read_text())
    mutate(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    code = main(argv + ["--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def _first_real_part(fixture):
    """The list holding the real part of the first complex entry of a fixture."""
    return {"phs.json": lambda doc: doc["pieces"][0]["basis"][1][0],
            "phs2.json": lambda doc: doc["pieces"][0]["basis"][1][0],
            "torus.json": lambda doc: doc["periods"][0][1],
            "datum.json": lambda doc: doc["holo"][1][0]}[fixture]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fixture,argv", [
    ("phs.json", ["phs", "validate"]),
    ("phs2.json", ["phs", "jacobian", "--index", "1"]),
    ("torus.json", ["torus", "dual"]),
    ("datum.json", ["qsv", "build"]),
], ids=["phs-validate", "phs-jacobian", "torus-dual", "qsv-build"])
def test_non_finite_decimal_exits_two(fixture, argv, value, fixtures, tmp_path, capsys):
    """A non-finite real part is an input error: one error line, no report."""
    doc = json.loads(pathlib.Path(fixtures[fixture]).read_text())
    _first_real_part(fixture)(doc)[0] = value
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    code, out = run(argv + ["--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: decimal '{value}' is not finite\n"


def _repeat_first_piece(doc):
    doc["pieces"][1]["basis"] = doc["pieces"][0]["basis"]


def _dependent_periods(doc):
    doc["periods"] = [[["1", "0"], ["2", "0"]]]


def test_singular_piece_basis_fails_validation(fixtures, tmp_path, capsys):
    """A repeated piece basis leaves the stacked basis singular: LU finds no
    pivot, and the check fails with span_defect 1."""
    doc = json.loads(pathlib.Path(fixtures["phs.json"]).read_text())
    _repeat_first_piece(doc)
    path = tmp_path / "phs.json"
    path.write_text(json.dumps(doc))
    code, out = run(["phs", "validate", "--input", str(path)])
    assert code == 1
    assert json.loads(out)["payload"]["span_defect"].startswith("1")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("fixture,argv,mutate,message", [
    ("phs.json", ["phs", "jacobian", "--index", "1"], _repeat_first_piece,
     "filtration complement is degenerate"),
    ("torus.json", ["torus", "dual"], _dependent_periods,
     "periods do not span a full lattice"),
], ids=["dependent-filtration", "dependent-periods"])
def test_singular_solve_exits_two(fixture, argv, mutate, message, fixtures, tmp_path, capsys):
    doc = json.loads(pathlib.Path(fixtures[fixture]).read_text())
    mutate(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    code, _ = run(argv + ["--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("fixture,mutate,want", [
    ("phs.json", None, 0),
    ("phs_bad.json", None, 1),
    ("phs.json", _repeat_first_piece, 1),
], ids=["golden", "bad-conjugate", "repeated-piece"])
def test_loose_tolerance_keeps_validate_verdicts(fixture, mutate, want, fixtures, tmp_path):
    """The span guard divides ||B||_F ||X||_F by the rank, so a valid structure
    passes at tolerance 0.5 and a repeated piece still fails with span_defect 1."""
    doc = json.loads(pathlib.Path(fixtures[fixture]).read_text())
    if mutate:
        mutate(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    code, out = run(["phs", "validate", "--input", str(path), "--tolerance", "0.5"])
    assert code == want
    if mutate:
        assert json.loads(out)["payload"]["span_defect"].startswith("1")


DEPENDENT_DATUM = {"r": 1, "rank": 2, "frobenii": [[[1, 0], [0, -1]]],
                   "holo": [[["1", "0"]], [["0", "0"]]]}


@pytest.mark.parametrize("argv", [
    ["qsv", "build"], ["qsv", "nu-structure", "--nu", "1"], ["qsv", "jacobian", "--nu", "1"],
], ids=["build", "nu-structure", "jacobian"])
def test_dependent_translates_exit_two(argv, tmp_path, capsys):
    """Holomorphic line (1, 0) under the flip: F^1 equals its conjugate."""
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(DEPENDENT_DATUM))
    code, _ = run(argv + ["--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "involution translates do not span in direct sum" in err


CONJUGATE_INCOMPATIBLE_DATUM = {"r": 1, "rank": 2, "frobenii": [[[1, 0], [0, -1]]],
                                "holo": [[["1", "0"]], [["2", "0"]]]}


@pytest.mark.parametrize("argv", [
    ["qsv", "build"], ["qsv", "nu-structure", "--nu", "1"], ["qsv", "jacobian", "--nu", "1"],
], ids=["build", "nu-structure", "jacobian"])
def test_conjugation_incompatible_datum_exits_two(argv, tmp_path, capsys):
    """Holomorphic line (1, 2) under the flip: the translates span, but
    H^{0,1} is not the conjugate of H^{1,0}, so no command reports on it."""
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(CONJUGATE_INCOMPATIBLE_DATUM))
    code, out = run(argv + ["--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not conjugation-compatible" in err


def test_nu_structure_reads_the_golden_datum_pieces(fixtures):
    d = ser.datum_from_json(json.loads(pathlib.Path(fixtures["datum.json"]).read_text()))
    test_shimura.assert_nu_pieces_are_built_pieces(d)


def _target_pieces(*bases):
    def mutate(doc):
        doc["cups"][0]["target"]["pieces"] = [
            {"alpha": a, "beta": a, "basis": [[[x, "0"]] for x in b]}
            for a, b in zip(([1, 0], [0, 1]), bases)]
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (_target_pieces(["1", "0"]), "cup target pieces do not fill the space"),
    (_target_pieces(["1", "0"], ["2", "0"]), "cup target pieces are linearly dependent"),
], ids=["not-filling", "dependent"])
def test_degenerate_cup_target_exits_two(mutate, message, fixtures, tmp_path, capsys):
    doc = json.loads(pathlib.Path(fixtures["sp.json"]).read_text())
    mutate(doc)
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["qsv", "strongly-primitive", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_piece_checks_and_eigen_split_make_no_svd(fixtures, monkeypatch):
    """mpmath's SVD is left to `shimura._restrict_structure` alone.  With it
    switched off, the nu-structure, strongly primitive and algebraization
    reports still match their golden files, the nonzero cup drops its piece,
    criterion 5 round trips, and the RM certificate checks its Hodge pieces
    and certifies."""
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath SVD called")

    monkeypatch.setattr(mp.mp, "svd", refuse)
    commands = dict(COMMANDS)
    for command in ("qsv.nu-structure", "qsv.strongly-primitive", "torus.rm-algebraize"):
        code, out = run(commands[command](fixtures))
        assert code == 0 and out == (GOLDEN / f"{command}.json").read_text()
    hbig, cup = test_shimura.extra_piece_cup()
    assert strongly_primitive(hbig, [cup]).rank == 4
    test_acceptance.test_criterion_5_algebraization_round_trip()
    test_tori.test_certificate_elliptic()
    test_tori.test_certificate_detects_rm_on_g2_jacobian()


def test_matrix_products_go_through_the_dot_kernel(fixtures, monkeypatch):
    """With mpmath's matrix-by-matrix product switched off, the Hodge
    checks and Jacobians still match their golden reports: every such
    product is `cxlinalg.matmul`."""
    product = mp.matrix.__mul__

    def scalar_only(self, other):
        if isinstance(other, mp.matrix):
            raise AssertionError("mpmath matrix product called")
        return product(self, other)

    monkeypatch.setattr(mp.matrix, "__mul__", scalar_only)
    commands = dict(COMMANDS)
    for command in ("phs.validate", "phs.jacobian", "qsv.build", "qsv.nu-structure"):
        code, out = run(commands[command](fixtures))
        assert code == 0 and out == (GOLDEN / f"{command}.json").read_text()


@pytest.mark.parametrize("precision,want", [("128", 2), ("256", 0)])
def test_thin_periods_decided_at_configured_precision(precision, want, tmp_path, capsys):
    """Periods 1 and 1 + 1e-20 i have Hadamard ratio about 1e-20: below
    2^-64, the default tolerance at 128 bits, and above 2^-128 at 256."""
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"g": 1, "periods": [[["1", "0"], ["1", "1e-20"]]]}))
    try:
        code, _ = run(["torus", "dual", "--input", str(path), "--precision", precision])
    finally:
        set_precision(128)
    err = capsys.readouterr().err
    assert code == want
    assert (err == "") == (want == 0)
    if want == 2:
        assert "periods do not span a full lattice" in err


@pytest.mark.parametrize("argv,want", [
    (["verify-laplacian", "--n", "2", "--truncation", "0", "--weights", "1e300,1e300"],
     {"pass": True}),
    (["harmonic", "--n", "2", "--truncation", "1", "--weights", "1e300,1e300",
      "--alpha", "1,0", "--beta", "0,1"], {"dimension": 1}),
    (["verify-identities", "--n", "2", "--truncation", "1", "--weights", "1e-170,1e-170"],
     {"pass": True}),
    (["extract-phs", "--n", "2", "--truncation", "0", "--degree", "1",
      "--weights", "1e300,1e300"], {"degree": 1}),
    (["verify-laplacian", "--n", "2", "--truncation", "1", "--weights", "1e-308,1e-308"],
     {"pass": True, "half_sum_residual": "inf"}),
    (["metric-independence", "--n", "2", "--truncation", "1", "--weights-a", "1e300,1e300",
      "--weights-b", "1,1"], {"passed": True, "residual": "0.0"}),
], ids=["laplacian-huge", "harmonic-huge", "identities-tiny", "extract-huge", "laplacian-tiny",
        "metric-huge"])
def test_extreme_weights_are_decided_exactly(argv, want):
    """Weights whose Gram entries overflow or underflow a double: the
    verdicts and the harmonic kernel come from exact coefficients, so each
    call passes."""
    code, out = run(["flat"] + argv)
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert want.items() <= report["payload"].items()


@pytest.mark.parametrize("argv,message", [
    (["--n", "0"], "at least one factor"),
    (["--n", "-1"], "at least one factor"),
    (["--n", "2", "--weights", "nan,1"], "finite and positive"),
    (["--n", "2", "--weights", "1,inf"], "finite and positive"),
    (["--n", "1", "--weights=-inf"], "finite and positive"),
], ids=["n-zero", "n-negative", "nan-weight", "inf-weight", "minus-inf-weight"])
def test_bad_flat_torus_exits_two(argv, message, capsys):
    code = main(["flat", "verify-identities", "--truncation", "1"] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("fixture,argv", [
    ("torus_rm.json", ["torus", "rm-detect", "--height-bound", "0"]),
    ("torus_rm.json", ["torus", "rm-detect", "--height-bound", "-3"]),
    ("torus.json", ["torus", "endos", "--height-bound", "0"]),
    ("datum.json", ["qsv", "jacobian", "--nu", "1", "--height-bound", "0"]),
], ids=["rm-detect-zero", "rm-detect-negative", "endos-zero", "qsv-jacobian-zero"])
def test_search_bound_below_one_exits_two(fixture, argv, fixtures, capsys):
    code = main(argv + ["--input", fixtures[fixture]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "height_bound must be >= 1" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["2", "1", "1e400", "inf", "0", "nan", "-1e-9"])
def test_tolerance_outside_unit_interval_exits_two(tolerance, fixtures, capsys):
    """Failed checks report residuals of 1, so a tolerance of 1 or more
    would pass phs_bad.json; it is rejected before any check runs."""
    code = main(["phs", "validate", "--input", fixtures["phs_bad.json"],
                 f"--tolerance={tolerance}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "tolerance" in err and err.count("\n") == 1


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
@pytest.mark.parametrize("argv", [
    ["verify-identities"],
    ["verify-laplacian"],
    ["harmonic", "--alpha", "1", "--beta", "0"],
    ["extract-phs", "--degree", "1"],
], ids=["identities", "laplacian", "harmonic", "extract-phs"])
def test_extreme_generators_are_decided_exactly(tmp_path, scale, argv):
    """Generators whose float area overflows or underflows a double: the
    lattice is judged degenerate or not on the exact rationals of its
    floats, so each call passes."""
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"factors": [[[scale, "0"], ["0", scale]]], "weights": [1]}))
    code, _ = run(["flat"] + argv + ["--truncation", "1", "--input", str(path)])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["verify-identities", "--n", "40", "--truncation", "0"],
    ["verify-laplacian", "--n", "7", "--truncation", "0"],
    ["harmonic", "--n", "7", "--alpha", "1,0,0,0,0,0,0", "--beta", "0,0,0,0,0,0,0"],
    ["metric-independence", "--n", "40", "--truncation", "0"],
    ["verify-identities", "--n", "1000000000000"],
    ["extract-phs", "--degree", "1", "--input"],
], ids=["identities-40", "laplacian-7", "harmonic-7", "metric-40", "identities-10e12",
        "input-7"])
def test_too_many_flat_factors_exit_two(argv, tmp_path, capsys):
    """A form space lists its 4^n refined types, so n is capped at 6
    (4,096 types): n = 7, 40 and 10^12, given by --n, or seven factors in
    an input file, exit 2 at once with one error line; --n is refused
    before its n default weights are formed."""
    if argv[-1] == "--input":
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"factors": [[["1", "0"], ["0", "1"]]] * 7, "weights": [1] * 7}))
        argv = argv + [str(path)]
    t0 = time.monotonic()
    code = main(["flat"] + argv)
    elapsed = time.monotonic() - t0
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1.0
    assert err.startswith("error:") and "at most 6 factors" in err and err.count("\n") == 1


def test_boolean_flat_weight_exits_two(tmp_path, capsys):
    """true is not read as the weight 1.0; a JSON number and a decimal
    string still are."""
    path = tmp_path / "flat.json"
    argv = ["flat", "harmonic", "--alpha", "1", "--beta", "0", "--truncation", "1",
            "--input", str(path)]
    for weight, want in ((True, 2), (1, 0), ("1.0", 0)):
        path.write_text(json.dumps({"factors": [[["1", "0"], ["0", "1"]]], "weights": [weight]}))
        code, _ = run(argv)
        assert code == want, weight
    err = capsys.readouterr().err
    assert err.startswith("error: bad flat-torus JSON") and err.count("\n") == 1


@pytest.mark.parametrize("dest", [lambda p: p / "missing" / "r.json", lambda p: p],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_exits_two(dest, tmp_path, capsys):
    """A report that cannot be written is an input error: one line, no traceback."""
    path = dest(tmp_path)
    code = main(["flat", "harmonic", "--n", "1", "--alpha", "1", "--beta", "0",
                 "--output", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_collinear_flat_generators_exit_two(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"factors": [[["1", "0"], ["2", "0"]]], "weights": [1]}))
    code = main(["flat", "verify-identities", "--truncation", "1", "--input", str(path)])
    assert code == 2 and "degenerate" in capsys.readouterr().err


def test_rm_construct_on_reducible_min_poly_exits_two(tmp_path, capsys):
    field = {"degree": 2, "min_poly": [1, -3, 2], "is_maximal": True,  # (x - 1)(x - 2)
             "integral_basis_mult_table": [[[1, 0], [0, 1]], [[0, 1], [-2, 3]]]}
    path = tmp_path / "rm.json"
    path.write_text(json.dumps({"field": field, "z": [["0", "1"], ["0", "2"]]}))
    code = main(["torus", "rm-construct", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "irreducible" in err


def _fresh_interpreter(probe):
    """Standard output of `probe` run by a fresh interpreter on this plectic."""
    import os
    import subprocess
    import sys

    import plectic

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plectic.__file__)))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def _loaded_after_cli_import(module):
    """Whether a fresh interpreter has `module` loaded after importing plectic.cli."""
    out = _fresh_interpreter(f"import sys, plectic.cli; print({module!r} in sys.modules)")
    return out.strip() == "True"


def test_cli_import_leaves_scipy_out():
    assert not _loaded_after_cli_import("scipy")


def test_cli_import_leaves_sympy_out():
    assert not _loaded_after_cli_import("sympy")


def test_cli_import_leaves_jsonschema_out():
    assert not _loaded_after_cli_import("jsonschema")


def test_package_and_cli_import_leave_numpy_out():
    out = _fresh_interpreter("import sys, plectic; a = 'numpy' in sys.modules; "
                             "import plectic.cli; print(a, 'numpy' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_torus_command_leaves_numpy_out(fixtures, tmp_path):
    argv = ["torus", "dual", "--input", fixtures["torus.json"],
            "--output", str(tmp_path / "report.json")]
    out = _fresh_interpreter(f"import sys; from plectic.cli import main; "
                             f"print(main({argv!r}), 'numpy' in sys.modules)")
    assert out.split() == ["0", "False"]


def test_golden_commands_leave_numpy_out(fixtures):
    """All golden commands through cli.main in one fresh interpreter, with
    their golden exit codes; no plectic module imports numpy."""
    argvs = [argv_fn(fixtures) for _, argv_fn in COMMANDS]
    out = _fresh_interpreter(
        "import contextlib, io, json, sys; from plectic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))")
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert json.loads(out) == [[codes[c] for c, _ in COMMANDS], False]


def test_flat_command_in_fresh_interpreter(tmp_path):
    """The first flat call of a process loads plectic.flat through the CLI;
    nothing has imported it before."""
    argv = ["flat", "harmonic", "--n", "1", "--truncation", "1", "--alpha", "1",
            "--beta", "0", "--output", str(tmp_path / "report.json")]
    out = _fresh_interpreter(f"import sys; from plectic.cli import main; "
                             f"print('plectic.flat' in sys.modules, main({argv!r}))")
    assert out.split() == ["False", "0"]
    assert json.loads((tmp_path / "report.json").read_text())["payload"]["dimension"] == 1


FLAT_EXPORTS = ["FlatTorus", "FourierFormSpace", "OperatorMatrix", "adjoint", "build_space",
                "d_operator", "extract_plectic_structure", "harmonic_space", "hodge_star",
                "metric_independence_check", "verify_laplacian_sum",
                "verify_refined_identities", "xi_operator"]


def test_flat_names_load_on_first_use():
    probe = f"""
import json, sys
import plectic
before = "plectic.flat" in sys.modules
flat = getattr(plectic, "flat")
names = {FLAT_EXPORTS!r}
try:
    plectic.no_such_name
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
print(json.dumps({{
    "before": before,
    "module": flat is sys.modules["plectic.flat"],
    "same": [getattr(plectic, k) is getattr(flat, k) for k in names],
    "in_dir": [k in dir(plectic) for k in names + ["flat"]],
    "missing": missing,
}}))
"""
    out = json.loads(_fresh_interpreter(probe))
    assert out["before"] is False and out["module"] is True
    assert all(out["same"]) and all(out["in_dir"])
    assert out["missing"] == "AttributeError"
