"""Command-line front end for the library.

Evaluate rearrangements, norms, associate norms, reverse Hardy constants,
representation-measure fits, embedding criteria, and weight-condition
checks from the terminal, with JSON / CSV / table output.

Usage:
    lorentzlab rearrange --f steps:cells.json --format csv
    lorentzlab norm --spec lpq:2,2 --f indicator:0,1
    lorentzlab assoc --p 2 --psi power:0 --phi power:0 --f indicator:0,1
    lorentzlab hardy-constants --config problem.json
    lorentzlab verify-hardy --config problem.json --trials 1000 --seed 7
    lorentzlab fit-measure --target power:0.5 --sigma power:1 --out nu.json
    lorentzlab embed --p 2 --q 2 --psi power:0 --phi power:0 --w power:0
    lorentzlab verify-duality --p 2 --psi power:0 --phi power:0 --functions 10
    lorentzlab check-weight --w power:0 --p 2

Function and weight literals: ``indicator:a,b`` (value 1 on (a, b]),
``power:alpha`` (t^alpha), ``powerlog:alpha,beta``, ``steps:file.json``
(piecewise-constant data).  Weight slots keep power laws exact; function
slots sample them onto the working grid at cell geometric midpoints.

Norm specs: ``lpq:p,q``, ``lpq_star:p,q``, or ``@file.json`` holding the
NormSpec schema, e.g. {"schema_version": 1, "family":
"gen_classical_lorentz", "p": 2, "psi": {...}, "phi": {...}}.

JSON config files must carry ``"schema_version": 1``; unknown fields are
rejected.  Identical config and seed produce byte-identical JSON output.
Exit codes: 0 on success, 1 on computation error, 2 on config error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from typing import Optional

import click
import numpy as np

from .associate import (
    Lpq,
    LpqStar,
    NormSpec,
    assoc_generalized,
    embedding_criterion,
    empirical_embedding_check,
    norm as norm_value,
    norm_spec_from_json,
    verify_duality,
)
from .conditions import b1_check, bp_check, delta2_check, quasinorm_sufficient_check
from .errors import ConfigError, LorentzLabError
from .funcs import PiecewiseFn, indicator
from .grid import DEFAULT_GRID, GeometricGrid
from .hardy import HardyProblem, a1_constant, a2_constant, verify_reverse_hardy
from .measures import DiscreteMeasure, fit_representation_measure
from .rearrangement import decreasing_rearrangement
from .weights import Power, PowerLog, Tabulated, Weight, weight_from_json

__all__ = [
    "cli",
    "main",
]


# -- literal / config parsing --------------------------------------------------


def _floats(text: str, n: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n or any(not p for p in parts):
        raise ConfigError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{what}: could not parse numbers from {text!r}") from None


def _read_json_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    version = data.get("schema_version")
    if version != 1:
        raise ConfigError(f"{path}: schema_version must be 1, got {version!r}")
    return data


def _check_fields(data: dict, path: str, allowed: set, required: set) -> None:
    unknown = sorted(set(data) - allowed - {"schema_version"})
    if unknown:
        raise ConfigError(f"{path}: unknown fields {unknown}")
    missing = sorted(required - set(data))
    if missing:
        raise ConfigError(f"{path}: missing required fields {missing}")


def _steps_from_file(path: str) -> PiecewiseFn:
    data = _read_json_config(path)
    _check_fields(
        data,
        path,
        allowed={
            "breakpoints",
            "values",
            "right_value",
            "grid",
            "left_extension",
            "right_extension",
        },
        required={"values"},
    )
    body = {k: v for k, v in data.items() if k != "schema_version"}
    try:
        return PiecewiseFn.from_json(body)
    except (LorentzLabError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _weight_from_literal(text: str) -> Weight:
    kind, _, arg = text.partition(":")
    if kind == "power":
        (alpha,) = _floats(arg, 1, "power weight")
        return Power(alpha)
    if kind == "powerlog":
        alpha, beta = _floats(arg, 2, "powerlog weight")
        return PowerLog(alpha, beta)
    if kind == "indicator":
        a, b = _floats(arg, 2, "indicator")
        return Tabulated(indicator(a, b))
    if kind == "steps":
        return Tabulated(_steps_from_file(arg))
    raise ConfigError(
        f"unrecognized weight literal {text!r}; "
        "use power:alpha, powerlog:alpha,beta, indicator:a,b, or steps:file.json"
    )


def _fn_from_literal(text: str, grid: GeometricGrid) -> PiecewiseFn:
    kind, _, arg = text.partition(":")
    if kind == "indicator":
        a, b = _floats(arg, 2, "indicator")
        return indicator(a, b)
    if kind == "steps":
        return _steps_from_file(arg)
    if kind in ("power", "powerlog"):
        w = _weight_from_literal(text)
        edges = grid.breakpoints
        mids = np.sqrt(edges[:-1] * edges[1:])
        return PiecewiseFn.on_grid(grid, w(mids))
    raise ConfigError(
        f"unrecognized function literal {text!r}; "
        "use indicator:a,b, power:alpha, powerlog:alpha,beta, or steps:file.json"
    )


def _spec_from_text(text: str) -> NormSpec:
    if text.startswith("@") or text.endswith(".json"):
        path = text[1:] if text.startswith("@") else text
        data = _read_json_config(path)
        body = {k: v for k, v in data.items() if k != "schema_version"}
        try:
            return norm_spec_from_json(body)
        except (LorentzLabError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
    kind, _, arg = text.partition(":")
    if kind == "lpq":
        p, q = _floats(arg, 2, "lpq spec")
        return Lpq(p, q)
    if kind == "lpq_star":
        p, q = _floats(arg, 2, "lpq_star spec")
        return LpqStar(p, q)
    raise ConfigError(
        f"unrecognized norm spec {text!r}; use lpq:p,q, lpq_star:p,q, or @file.json"
    )


def _grid_from_text(text: Optional[str]) -> GeometricGrid:
    if text is None:
        return DEFAULT_GRID
    t_min, t_max, ppd = _floats(text, 3, "--grid")
    if not ppd == int(ppd) or ppd < 1:
        raise ConfigError(f"--grid points-per-decade must be a positive integer, got {ppd}")
    try:
        return GeometricGrid(t_min, t_max, int(ppd))
    except (LorentzLabError, ValueError) as exc:
        raise ConfigError(f"--grid: {exc}") from None


# -- output formatting ---------------------------------------------------------


def _clean(obj):
    """Make a payload JSON-safe with deterministic float text.

    Non-finite floats become the strings "inf" / "-inf" / "nan" so the
    output stays valid JSON; finite floats keep Python repr formatting.
    """
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _to_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("series", "t", "value"))
    for row in rows:
        writer.writerow([_cell(c) for c in row])
    return buf.getvalue()


def _flatten(obj, prefix: str = "") -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            pairs.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
        return pairs
    key = prefix[:-1]
    if isinstance(obj, list):
        if len(obj) <= 6 and not any(isinstance(v, (dict, list)) for v in obj):
            pairs.append((key, "[" + ", ".join(_cell(v) for v in obj) + "]"))
        else:
            pairs.append((key, f"[{len(obj)} entries]"))
        return pairs
    pairs.append((key, _cell(obj)))
    return pairs


def _to_table(payload: dict, rows: list[tuple]) -> str:
    pairs = _flatten(payload)
    width = max(len(k) for k, _ in pairs)
    lines = [f"{k:<{width}}  {v}" for k, v in pairs]
    if rows:
        lines.append("")
        lines.append(f"{'series':<16} {'t':>24} {'value':>24}")
        for series, t, value in rows:
            lines.append(f"{str(series):<16} {_cell(t):>24} {_cell(value):>24}")
    return "\n".join(lines) + "\n"


def _emit(payload: dict, rows: list[tuple], fmt: str, out: Optional[str]) -> None:
    payload = _clean(payload)
    if fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        text = _to_csv(rows)
    else:
        text = _to_table(payload, rows)
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _common_options(fn):
    fn = click.option(
        "--out",
        type=click.Path(dir_okay=False),
        default=None,
        help="Write output to this file instead of stdout.",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv", "table"]),
        default="json",
        show_default=True,
        help="Output format; CSV is long-format, one row per (t, value).",
    )(fn)
    fn = click.option(
        "--grid",
        "grid_text",
        metavar="TMIN,TMAX,PPD",
        default=None,
        help="Working grid override (defaults to 1e-4,1e4,32).",
    )(fn)
    return fn


def _payload(command: str, **fields) -> dict:
    out = {"schema_version": 1, "command": command}
    out.update(fields)
    return out


# -- commands ------------------------------------------------------------------


@click.group()
def cli() -> None:
    """Norms, rearrangements, reverse Hardy constants, and associate norms
    for piecewise-constant functions on (0, inf)."""


@cli.command()
@click.option("--f", "f_text", required=True, metavar="LITERAL", help="Function to rearrange.")
@_common_options
def rearrange(f_text: str, grid_text: Optional[str], fmt: str, out: Optional[str]) -> None:
    """Decreasing rearrangement f* of a step function."""
    grid = _grid_from_text(grid_text)
    f = _fn_from_literal(f_text, grid)
    fstar = decreasing_rearrangement(f)
    fn = fstar.fn
    payload = _payload(
        "rearrange",
        f=f.to_json(),
        f_star=fn.to_json(),
    )
    rows = [("f_star", t, v) for t, v in zip(fn.breakpoints, fn.values)]
    _emit(payload, rows, fmt, out)


@cli.command()
@click.option("--spec", "spec_text", required=True, metavar="SPEC",
              help="Norm spec: lpq:p,q, lpq_star:p,q, or @file.json.")
@click.option("--f", "f_text", required=True, metavar="LITERAL", help="Function to measure.")
@_common_options
def norm(spec_text: str, f_text: str, grid_text: Optional[str], fmt: str,
         out: Optional[str]) -> None:
    """Evaluate a norm from one of the six supported families."""
    grid = _grid_from_text(grid_text)
    spec = _spec_from_text(spec_text)
    f = _fn_from_literal(f_text, grid)
    value = norm_value(spec, f, grid)
    payload = _payload("norm", spec=spec.to_json(), value=value)
    rows = [("value", "", value)]
    _emit(payload, rows, fmt, out)


@cli.command()
@click.option("--p", required=True, type=float, help="Primary exponent p in (0, inf).")
@click.option("--psi", "psi_text", default="power:0", show_default=True, metavar="LITERAL")
@click.option("--phi", "phi_text", default="power:0", show_default=True, metavar="LITERAL")
@click.option("--f", "f_text", required=True, metavar="LITERAL", help="Function to measure.")
@_common_options
def assoc(p: float, psi_text: str, phi_text: str, f_text: str,
          grid_text: Optional[str], fmt: str, out: Optional[str]) -> None:
    """Closed-form associate norm on the psi/phi-weighted Lorentz space."""
    grid = _grid_from_text(grid_text)
    psi = _weight_from_literal(psi_text)
    phi = _weight_from_literal(phi_text)
    f = _fn_from_literal(f_text, grid)
    result = assoc_generalized(p, psi, phi, f, grid)
    payload = _payload(
        "assoc",
        p=p,
        psi=psi.to_json(),
        phi=phi.to_json(),
        **result.to_json(),
    )
    rows = [("value", "", result.value)] + [
        ("nu_atom", t, m)
        for t, m in zip(result.nu_used.locations, result.nu_used.masses)
    ]
    _emit(payload, rows, fmt, out)


def _problem_from_config(path: str) -> HardyProblem:
    data = _read_json_config(path)
    _check_fields(
        data,
        path,
        allowed={"q", "u", "v", "w", "nu", "grid"},
        required={"q", "u", "v", "w"},
    )
    grid = (
        GeometricGrid.from_json(data["grid"]) if "grid" in data else DEFAULT_GRID
    )
    try:
        q = float(data["q"])
        u = weight_from_json(data["u"])
        v = weight_from_json(data["v"])
        w = weight_from_json(data["w"])
        if "nu" in data:
            return HardyProblem(q, u, v, w, DiscreteMeasure.from_json(data["nu"]), grid)
        return HardyProblem.with_fitted_measure(q, u, v, w, grid)
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


@cli.command("hardy-constants")
@click.option("--config", "config_path", required=True, metavar="FILE.json",
              help="Problem file: schema_version, q, u, v, w, optional nu and grid; "
                   "without nu the representation measure is fitted.")
@_common_options
def hardy_constants(config_path: str, grid_text: Optional[str], fmt: str,
                    out: Optional[str]) -> None:
    """Reverse Hardy constant A(1) (q >= 1) or A(2) (q < 1) for a problem."""
    if grid_text is not None:
        raise ConfigError("hardy-constants takes its grid from the problem file")
    problem = _problem_from_config(config_path)
    if problem.branch == 1:
        value, flags = a1_constant(problem), {}
    else:
        value, flags = a2_constant(problem, with_flags=True)
    payload = _payload(
        "hardy-constants",
        branch=problem.branch,
        q=problem.q,
        value=value,
        boundary_flags=flags,
        fit_report=problem.fit_report.to_json() if problem.fit_report else None,
    )
    rows = [("value", "", value)] + [
        ("nu_atom", t, m)
        for t, m in zip(problem.nu.locations, problem.nu.masses)
    ]
    _emit(payload, rows, fmt, out)


@cli.command("verify-hardy")
@click.option("--config", "config_path", required=True, metavar="FILE.json")
@click.option("--trials", default=100, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@_common_options
def verify_hardy(config_path: str, trials: int, seed: int, grid_text: Optional[str],
                 fmt: str, out: Optional[str]) -> None:
    """Check the optimal empirical constant against A(1)/A(2) on trial functions."""
    if grid_text is not None:
        raise ConfigError("verify-hardy takes its grid from the problem file")
    if trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {trials}")
    problem = _problem_from_config(config_path)
    report = verify_reverse_hardy(problem, n_trials=trials, seed=seed)
    payload = _payload(
        "verify-hardy",
        trials=trials,
        seed=seed,
        report=report.to_json(),
    )
    rows = [
        ("c_emp_over_a", "", report.lower),
        ("c_emp", "", report.details["c_emp"]),
        ("a_value", "", report.details["a_value"]),
    ]
    _emit(payload, rows, fmt, out)


@cli.command("fit-measure")
@click.option("--target", "target_text", required=True, metavar="LITERAL",
              help="Quasiconcave target h to represent.")
@click.option("--sigma", "sigma_text", required=True, metavar="LITERAL",
              help="Scale sigma integrated against min(1, t/s).")
@click.option("--max-log-ratio", default=math.log(1.1), show_default=True, type=float,
              help="Interior fit tolerance as sup |log(fit/target)|.")
@click.option("--origin-atom/--no-origin-atom", default=True, show_default=True,
              help="Allow an atom at t = 0 in the fitted measure.")
@_common_options
def fit_measure(target_text: str, sigma_text: str, max_log_ratio: float,
                origin_atom: bool, grid_text: Optional[str], fmt: str,
                out: Optional[str]) -> None:
    """Fit a discrete representation measure to a quasiconcave target."""
    if max_log_ratio <= 0.0:
        raise ConfigError(f"--max-log-ratio must be positive, got {max_log_ratio}")
    grid = _grid_from_text(grid_text)
    target = _weight_from_literal(target_text)
    sig = _weight_from_literal(sigma_text)
    nu, report = fit_representation_measure(
        target, sig, grid, origin_atom, max_log_ratio=max_log_ratio
    )
    payload = _payload(
        "fit-measure",
        target=target.to_json(),
        sigma=sig.to_json(),
        nu=nu.to_json(),
        fit_report=report.to_json(),
    )
    rows = [("nu_atom", t, m) for t, m in zip(nu.locations, nu.masses)]
    _emit(payload, rows, fmt, out)


@cli.command()
@click.option("--p", required=True, type=float, help="Source exponent.")
@click.option("--q", required=True, type=float, help="Target exponent.")
@click.option("--psi", "psi_text", default="power:0", show_default=True, metavar="LITERAL")
@click.option("--phi", "phi_text", default="power:0", show_default=True, metavar="LITERAL")
@click.option("--w", "w_text", required=True, metavar="LITERAL", help="Target Lorentz weight.")
@click.option("--trials", default=0, show_default=True, type=int,
              help="If > 0, also run the empirical ratio check on this many functions.")
@click.option("--seed", default=0, show_default=True, type=int)
@_common_options
def embed(p: float, q: float, psi_text: str, phi_text: str, w_text: str, trials: int,
          seed: int, grid_text: Optional[str], fmt: str, out: Optional[str]) -> None:
    """Finiteness criterion for the embedding into a classical Lorentz space."""
    if trials < 0:
        raise ConfigError(f"--trials must be >= 0, got {trials}")
    grid = _grid_from_text(grid_text)
    psi = _weight_from_literal(psi_text)
    phi = _weight_from_literal(phi_text)
    w = _weight_from_literal(w_text)
    result = embedding_criterion(p, q, psi, phi, w, grid)
    payload = _payload(
        "embed",
        p=p,
        q=q,
        psi=psi.to_json(),
        phi=phi.to_json(),
        w=w.to_json(),
        **result.to_json(),
    )
    rows = [
        ("criterion_value", "", result.criterion_value),
        ("holds", "", str(result.holds)),
    ]
    if trials > 0:
        report = empirical_embedding_check(
            p, q, psi, phi, w, n_trials=trials, seed=seed, grid=grid
        )
        payload["empirical"] = report.to_json()
        rows.append(("empirical_upper", "", report.upper))
    _emit(payload, rows, fmt, out)


@cli.command("verify-duality")
@click.option("--p", required=True, type=float)
@click.option("--psi", "psi_text", default="power:0", show_default=True, metavar="LITERAL")
@click.option("--phi", "phi_text", default="power:0", show_default=True, metavar="LITERAL")
@click.option("--functions", default=20, show_default=True, type=int,
              help="Number of trial functions.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--oracle-trials", default=40, show_default=True, type=int)
@click.option("--local-steps", default=25, show_default=True, type=int)
@_common_options
def verify_duality_cmd(p: float, psi_text: str, phi_text: str, functions: int, seed: int,
                       oracle_trials: int, local_steps: int, grid_text: Optional[str],
                       fmt: str, out: Optional[str]) -> None:
    """Compare the closed-form associate norm against the brute-force oracle."""
    if functions < 1:
        raise ConfigError(f"--functions must be >= 1, got {functions}")
    grid = _grid_from_text(grid_text)
    psi = _weight_from_literal(psi_text)
    phi = _weight_from_literal(phi_text)
    report = verify_duality(
        p,
        psi,
        phi,
        n_functions=functions,
        seed=seed,
        grid=grid,
        oracle_trials=oracle_trials,
        local_search_steps=local_steps,
    )
    payload = _payload(
        "verify-duality",
        p=p,
        psi=psi.to_json(),
        phi=phi.to_json(),
        n_functions=functions,
        seed=seed,
        report=report.to_json(),
    )
    rows = [("ratio_lower", "", report.lower), ("ratio_upper", "", report.upper)]
    _emit(payload, rows, fmt, out)


@cli.command("check-weight")
@click.option("--w", "w_text", required=True, metavar="LITERAL", help="Weight to check.")
@click.option("--p", default=2.0, show_default=True, type=float,
              help="Exponent for the p-dependent conditions.")
@_common_options
def check_weight(w_text: str, p: float, grid_text: Optional[str], fmt: str,
                 out: Optional[str]) -> None:
    """Run the weight-condition battery (Delta_2, B_p / B_1, quasinorm test)."""
    if not (p > 0.0) or not math.isfinite(p):
        raise ConfigError(f"--p must be a positive finite real, got {p}")
    grid = _grid_from_text(grid_text)
    w = _weight_from_literal(w_text)
    checks = [delta2_check(w, grid)]
    if p > 1.0:
        checks.append(bp_check(w, p, grid))
    else:
        checks.append(b1_check(w, grid))
    checks.append(quasinorm_sufficient_check(w, p, grid))
    payload = _payload(
        "check-weight",
        p=p,
        w=w.to_json(),
        checks=[c.to_json() for c in checks],
    )
    rows = [(c.condition, c.witness_t, c.best_constant) for c in checks]
    _emit(payload, rows, fmt, out)


def main(argv: Optional[list] = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, prog_name="lorentzlab", standalone_mode=False)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 2
    except click.UsageError as exc:
        click.echo(f"config error: {exc.format_message()}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.exceptions.Abort:
        return 2
    except LorentzLabError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
