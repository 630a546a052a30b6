"""Specification files, report serialization and run manifests.

Body and domain specifications are schema-versioned JSON documents.  Report
files are deterministic: fixed field order, floats at full round-trip
precision (17 significant digits in CSV), and no wall-clock data; the
run manifest that carries timing lives in a separate sidecar file.
"""

import csv
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .bodies import AnnularDomain2D, Body2D, RevolutionBody, make_ball, convexity_report
from .errors import DataFormatError

SCHEMA_VERSION = 1


def _fmt(x):
    return f"{float(x):.17g}"


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise DataFormatError(f"{where}: expected an object, got {mapping!r}")
    if key not in mapping:
        raise DataFormatError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _numbers(mapping, key, where, default=None, ndim=0):
    """Field key as a float (ndim 0) or as a float array of at most ndim
    dimensions; required unless a default is given."""
    value = _require(mapping, key, where) if default is None else mapping.get(key, default)
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out.ndim > ndim:
        noun = "a number" if ndim == 0 else "a list of numbers"
        raise DataFormatError(f"{where}: field {key!r} must be {noun}, got {value!r}")
    return float(out) if ndim == 0 else out


def _integer(mapping, key, where):
    value = _numbers(mapping, key, where)
    if not value.is_integer():
        raise DataFormatError(f"{where}: field {key!r} must be an integer, got {mapping[key]!r}")
    return int(value)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def body_from_dict(doc, where="body spec"):
    schema = _require(doc, "schema", where)
    if schema != SCHEMA_VERSION:
        raise DataFormatError(f"{where}: unsupported schema version {schema!r}")
    kind = _require(doc, "kind", where)
    n = _integer(doc, "n", where)
    params = _require(doc, "params", where)
    if kind == "ball":
        return make_ball(n, _numbers(params, "r", where))
    if kind == "fourier2d":
        if n != 2:
            raise DataFormatError(f"{where}: fourier2d bodies require n = 2")
        return Body2D(a0=_numbers(params, "a0", where),
                      cos=_numbers(params, "cos", where, [], ndim=1),
                      sin=_numbers(params, "sin", where, [], ndim=1))
    if kind == "revolution":
        if n < 3:
            raise DataFormatError(f"{where}: revolution bodies require n >= 3")
        return RevolutionBody(n=n, a0=_numbers(params, "a0", where),
                              cos_even=_numbers(params, "cos_even", where, [], ndim=1))
    raise DataFormatError(f"{where}: unknown body kind {kind!r}")


def body_to_dict(body):
    if isinstance(body, Body2D):
        if body.is_round:
            return {"schema": SCHEMA_VERSION, "kind": "ball", "n": 2,
                    "params": {"r": body.a0}}
        return {"schema": SCHEMA_VERSION, "kind": "fourier2d", "n": 2,
                "params": {"a0": body.a0, "cos": list(body.cos), "sin": list(body.sin)}}
    if isinstance(body, RevolutionBody):
        if body.is_round:
            return {"schema": SCHEMA_VERSION, "kind": "ball", "n": body.n,
                    "params": {"r": body.a0}}
        return {"schema": SCHEMA_VERSION, "kind": "revolution", "n": body.n,
                "params": {"a0": body.a0, "cos_even": list(body.cos_even)}}
    raise DataFormatError(f"cannot serialize body of type {type(body).__name__}")


def load_body(path):
    """Parse a body specification file; returns (body, convexity report)."""
    body = body_from_dict(_load_json(path), where=str(path))
    return body, convexity_report(body)


def domain_from_dict(doc, where="domain spec"):
    schema = _require(doc, "schema", where)
    if schema != SCHEMA_VERSION:
        raise DataFormatError(f"{where}: unsupported schema version {schema!r}")
    kind = _require(doc, "kind", where)
    if kind != "annular2d":
        raise DataFormatError(f"{where}: unknown domain kind {kind!r}")
    inner = body_from_dict(_require(doc, "inner", where), where=f"{where}.inner")
    outer = body_from_dict(_require(doc, "outer", where), where=f"{where}.outer")
    if not isinstance(inner, Body2D) or not isinstance(outer, Body2D):
        raise DataFormatError(f"{where}: annular domains need planar bodies")
    return AnnularDomain2D(inner=inner, outer=outer,
                           offset=_numbers(doc, "offset", where, 0.0),
                           offset_angle=_numbers(doc, "offset_angle", where, 0.0))


def load_domain(path):
    return domain_from_dict(_load_json(path), where=str(path))


def domain_to_dict(dom):
    return {"schema": SCHEMA_VERSION, "kind": "annular2d",
            "inner": body_to_dict(dom.inner), "outer": body_to_dict(dom.outer),
            "offset": dom.offset, "offset_angle": dom.offset_angle}


@dataclass
class RunManifest:
    """Reproducibility record for one CLI invocation."""

    command: str
    parameters: dict
    tolerances: dict = field(default_factory=dict)
    resolutions: dict = field(default_factory=dict)
    version: str = __version__
    started: float = field(default_factory=time.time)

    def embedded(self):
        """Deterministic portion, embedded into every report."""
        return {"command": self.command, "parameters": self.parameters,
                "tolerances": self.tolerances, "resolutions": self.resolutions,
                "version": self.version}

    def sidecar(self):
        return dict(self.embedded(), wall_time_s=time.time() - self.started)


def write_json_report(payload, manifest, path):
    """Write a report with its embedded manifest; stable key order."""
    doc = dict(payload)
    doc["manifest"] = manifest.embedded()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(manifest, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(manifest.sidecar()), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_csv(path, header, rows):
    """RFC-4180 CSV with a header row and floats at 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) if isinstance(x, (float, np.floating)) else x
                             for x in row])


def nagy_report_payload(report):
    return {
        "r_star": report.r_star,
        "rows": [{"delta": d, "P_K": pk, "P_Kstar": ps, "margin": m}
                 for d, pk, ps, m in report.rows()],
        "verdict": report.verdict,
        "equality_detected": report.equality_detected,
        "hypotheses_ok": report.hypotheses_ok,
        "match": report.match,
    }


def write_nagy_csv(report, path):
    write_csv(path, ["delta", "P_K", "P_Kstar", "margin"], report.rows())


def rfk_report_payload(report):
    return asdict(report)


def write_parallel_table_csv(table, path):
    write_csv(path, ["delta", "L", "Ltilde"],
              list(zip(table.deltas, table.L, table.Ltilde)))


def write_profile_csv(result, path):
    write_csv(path, ["t", "v", "dv"], list(zip(result.t, result.v, result.dv)))


def insulation_report_payload(report):
    return asdict(report)
