"""Published JSON schemas for the CLI reports.

Every report shares the envelope (schema tag, command, config echo,
pass verdict); each command contributes a payload schema.  Measured
real numbers appear as decimal strings, counts as integers.
"""

from __future__ import annotations

DECIMAL = {"type": "string"}
COMPLEX = {"type": "array", "items": DECIMAL, "minItems": 2, "maxItems": 2}
COMPLEX_MATRIX = {"type": "array", "items": {"type": "array", "items": COMPLEX}}
INT_MATRIX = {
    "type": "object",
    "required": ["rows", "cols", "entries"],
    "properties": {
        "rows": {"type": "integer"},
        "cols": {"type": "integer"},
        "entries": {"type": "array", "items": {"type": "string"}},
    },
}
PHS = {
    "type": "object",
    "required": ["n", "rank", "pieces"],
    "properties": {
        "n": {"type": "integer"},
        "rank": {"type": "integer"},
        "pieces": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["alpha", "beta", "basis"],
                "properties": {
                    "alpha": {"type": "array", "items": {"type": "integer"}},
                    "beta": {"type": "array", "items": {"type": "integer"}},
                    "basis": COMPLEX_MATRIX,
                },
            },
        },
    },
}
TORUS = {
    "type": "object",
    "required": ["g", "periods"],
    "properties": {"g": {"type": "integer"}, "periods": COMPLEX_MATRIX},
}
CERTIFICATE = {
    "type": "object",
    "required": ["field", "z", "ideal", "iso", "residual"],
    "properties": {
        "z": {"type": "array", "items": COMPLEX},
        "iso": COMPLEX_MATRIX,
        "residual": DECIMAL,
    },
}

_PAYLOADS = {
    "phs.validate": {
        "type": "object",
        "required": ["passed", "span_defect", "conjugation_residual", "piece_dims"],
        "properties": {
            "passed": {"type": "boolean"},
            "span_defect": DECIMAL,
            "conjugation_residual": DECIMAL,
        },
    },
    "phs.refine": {
        "type": "object",
        "required": ["rank", "pieces"],
    },
    "phs.filtration": {
        "type": "object",
        "required": ["index", "dimension", "basis"],
        "properties": {"basis": COMPLEX_MATRIX},
    },
    "phs.tensor": {"type": "object", "required": ["structure"],
                   "properties": {"structure": PHS}},
    "phs.jacobian": {"type": "object", "required": ["index", "torus"],
                     "properties": {"torus": TORUS}},
    "torus.dual": {"type": "object", "required": ["torus"], "properties": {"torus": TORUS}},
    "torus.endos": {
        "type": "object",
        "required": ["height_bound", "rank", "basis"],
        "properties": {"basis": {"type": "array", "items": INT_MATRIX}},
    },
    "torus.rm-detect": {"type": "object", "required": ["found"]},
    "torus.rm-construct": {"type": "object", "required": ["torus"],
                           "properties": {"torus": TORUS}},
    "torus.rm-algebraize": {
        "type": "object",
        "required": ["z", "ideal", "iso", "index", "residual"],
        "properties": {"z": {"type": "array", "items": COMPLEX}, "residual": DECIMAL,
                       "index": {"type": "integer"}},
    },
    "flat.verify-identities": {
        "type": "object",
        "required": ["identity", "max_residual", "dims", "pass"],
        "properties": {"max_residual": DECIMAL, "pass": {"type": "boolean"}},
    },
    "flat.verify-laplacian": {
        "type": "object",
        "required": ["sum_residual", "dolbeault_residual", "half_sum_residual",
                     "block_diagonal_exact", "dims", "pass"],
        "properties": {
            "sum_residual": DECIMAL,
            "dolbeault_residual": DECIMAL,
            "half_sum_residual": DECIMAL,
            "block_diagonal_exact": {"type": "boolean"},
        },
    },
    "flat.harmonic": {
        "type": "object",
        "required": ["alpha", "beta", "dimension"],
        "properties": {"dimension": {"type": "integer"}},
    },
    "flat.extract-phs": {"type": "object", "required": ["degree", "structure"],
                         "properties": {"structure": PHS}},
    "flat.metric-independence": {
        "type": "object",
        "required": ["residual", "projection_difference", "passed"],
        "properties": {"residual": DECIMAL},
    },
    "qsv.build": {"type": "object", "required": ["structure", "validation"],
                  "properties": {"structure": PHS}},
    "qsv.strongly-primitive": {"type": "object", "required": ["structure"],
                               "properties": {"structure": PHS}},
    "qsv.nu-structure": {
        "type": "object",
        "required": ["nu", "rank", "filtration_dimension"],
    },
    "qsv.characters": {
        "type": "object",
        "required": ["nu", "characters"],
        "properties": {
            "characters": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["character", "rank", "basis"],
                },
            }
        },
    },
    "qsv.jacobian": {
        "type": "object",
        "required": ["nu", "torus", "certificates", "skipped"],
        "properties": {"torus": TORUS},
    },
    "aj.compute": {
        "type": "object",
        "required": ["nu", "functional", "reduced", "lattice_coords"],
        "properties": {
            "functional": {"type": "array", "items": COMPLEX},
            "reduced": {"type": "array", "items": COMPLEX},
            "lattice_coords": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "aj.periods": {
        "type": "object",
        "required": ["nu", "rank", "generators"],
        "properties": {"generators": {"type": "array",
                                      "items": {"type": "array", "items": COMPLEX}}},
    },
    "aj.theorem-b": {
        "type": "object",
        "required": ["nu", "trials", "modes"],
        "properties": {
            "modes": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["mode", "trials", "max_residual",
                                 "membership_failures"],
                    "properties": {
                        "max_residual": DECIMAL,
                        "membership_failures": {"type": "integer"},
                    },
                },
            }
        },
    },
}

SCHEMA_VERSION = "plectic-report/1"


def report_schema(command: str) -> dict:
    """Envelope plus the payload schema of one subcommand."""
    if command not in _PAYLOADS:
        raise KeyError(f"no schema published for {command}")
    return {
        "type": "object",
        "required": ["schema", "command", "config", "pass", "payload"],
        "properties": {
            "schema": {"const": SCHEMA_VERSION},
            "command": {"const": command},
            "config": {
                "type": "object",
                "required": ["precision", "tolerance", "truncation", "seed"],
                "properties": {
                    "precision": {"type": "integer"},
                    "tolerance": DECIMAL,
                    "truncation": {"type": "integer"},
                    "seed": {"type": "integer"},
                },
            },
            "pass": {"type": "boolean"},
            "payload": _PAYLOADS[command],
        },
    }


def known_commands():
    return sorted(_PAYLOADS)
