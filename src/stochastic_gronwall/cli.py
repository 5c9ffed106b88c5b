"""Command-line front end.

Subcommands: bound, gronwall, martingale, bem, verify. Numeric flags
can also come from a JSON config file (``--config``); explicit flags
win. Exit codes: 0 success, 2 config error, 3 numerical-contract
violation, 4 solver failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import keyword
import math
import os
import sys

from . import __version__
from .bounds import (
    AprioriInputs,
    HolderParams,
    apriori_bound_parts,
    holder_prefactor,
    theorem_bound_deterministic_G,
    theorem_bound_random_G,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    EstimateAbortedError,
    SolverError,
)
from .martingales import (
    lemma_bound_ratio,
    remark_constants,
    walk_functional_expectations,
)
from .mc import (
    DEFAULT_Z,
    SupStoppedBmPowerSampler,
    estimate_expectation,
    standard_synthetic_systems,
    verify_apriori,
    verify_theorem_on_synthetic,
)
from .sde import BemConfig, make_problem, simulate_trajectory, zoo_parameters
from .sequences import (
    RealSequence,
    gronwall_closed_form,
    gronwall_recursive_envelope,
    power_product_one_plus,
)
from .streams import CHUNK_SIZE, StreamPlan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5

SEED_ENV_VAR = "SGRONWALL_SEED"

_EPILOG = f"""exit codes:
  0  success
  2  configuration error (bad flags, config file, or parameter ranges)
  3  numerical-contract violation (invalid sequence data or parameters)
  4  implicit-solver failure
  5  verification failure (at least one verdict did not pass)

The default master seed comes from ${SEED_ENV_VAR} when --seed is omitted.
"""


def _fmt(x) -> str:
    """17 significant digits, enough to round-trip a float64 exactly."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _resolve_seed(seed) -> int:
    source = "--seed"
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return 0
        source = f"${SEED_ENV_VAR}"
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"{source} must be an integer, got {env!r}") from exc
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{source} must lie in [0, 2**64), got {seed}")
    return seed


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


# The JSON types a config file may give each type of flag; a list flag
# also takes one number or its comma-separated text.
_CONFIG_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    None: (str, "a string"),
    _float_list: ((int, float), "a number or a list of numbers"),
}


def _merge_config(args) -> None:
    """Fill flags left unset from the ``--config`` file (flags win).

    Its keys are the command's flag names, its values of the flags' types.
    """
    config = _load_config(args.config)
    unknown = set(config) - set(args.config_flags)
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; allowed: {sorted(args.config_flags)}"
        )
    for key, value in config.items():
        kind = args.config_flags[key].type
        items = [value]
        if kind is _float_list:
            value = _float_list(value) if isinstance(value, str) else value
            items = value = value if isinstance(value, list) else [value]
        types, expected = _CONFIG_TYPES[kind]
        if not all(isinstance(v, types) and not isinstance(v, bool) for v in items):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _check_finite(args) -> None:
    """Every float or list flag given, on the command line or in the
    config file, must be a finite float (argparse takes "nan" and "inf",
    JSON config files can hold NaN, and integers beyond the float range)."""
    for key, action in args.config_flags.items():
        value = getattr(args, key)
        if action.type in (float, _float_list) and value is not None:
            try:
                finite = all(math.isfinite(v) for v in (value if isinstance(value, list) else [value]))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"{action.option_strings[0]} must be finite, got {value!r}")


def _write_json(path, payload: dict) -> None:
    validate_report(payload)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_csv(path, header, rows) -> None:
    handle = sys.stdout if path is None or path == "-" else open(path, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if handle is not sys.stdout:
            handle.close()


_REPORT_KEYS = {
    "theorem-synthetic": {"kind", "inputs", "rows", "all_passed"},
    "apriori": {"kind", "inputs", "rows", "all_passed", "bound", "bound_parts",
                "spread", "margin", "h_robust"},
    "estimate": {"kind", "inputs", "estimate"},
}


def validate_report(payload: dict) -> None:
    """Schema check for emitted reports; raises ConfigError on mismatch."""
    if not isinstance(payload, dict):
        raise ConfigError("report must be a JSON object")
    kind = payload.get("kind")
    if kind not in _REPORT_KEYS:
        raise ConfigError(f"unknown report kind {kind!r}")
    missing = _REPORT_KEYS[kind] - set(payload)
    if missing:
        raise ConfigError(f"report is missing keys {sorted(missing)}")
    inputs = payload["inputs"]
    if not isinstance(inputs, dict) or "master_seed" not in inputs:
        raise ConfigError("report inputs must include the master seed")
    if "rows" in payload:
        if not isinstance(payload["rows"], list):
            raise ConfigError("report rows must be a list")
        for row in payload["rows"]:
            if not isinstance(row, dict) or "mean" not in row or "passed" not in row:
                raise ConfigError("each report row needs at least mean and passed")


# ---------------------------------------------------------------------------
# bound


def _cmd_bound(args) -> int:
    _check_finite(args)
    if args.form == "holder":
        hp = HolderParams(p=_require(args, "p"), nu=args.nu if args.nu is not None else 1.0)
        value = holder_prefactor(hp)
        print(f"prefactor        {_fmt(value)}")
        print(f"bound            {_fmt(value)}")
        return EXIT_OK
    if args.form == "deterministic-G":
        g = _require(args, "G")
        p = _require(args, "p")
        e_sup_f = _require(args, "e_sup_f")
        n = args.n if args.n is not None else len(g)
        bound = theorem_bound_deterministic_G(p, g, n, e_sup_f)
        prefactor = 1.0 + 1.0 / (1.0 - p)
        product_term = power_product_one_plus(RealSequence(g), 0, n, p)
        print(f"prefactor        {_fmt(prefactor)}")
        print(f"product_term     {_fmt(product_term)}")
        print(f"power_term       {_fmt(e_sup_f**p if e_sup_f > 0 else 0.0)}")
        print(f"bound            {_fmt(bound)}")
        return EXIT_OK
    if args.form == "random-G":
        hp = HolderParams(p=_require(args, "p"), nu=_require(args, "nu"))
        norm = _require(args, "g_norm")
        e_sup_f = _require(args, "e_sup_f")
        n = args.n if args.n is not None else 0
        bound = theorem_bound_random_G(hp, norm, n, e_sup_f)
        print(f"prefactor        {_fmt(holder_prefactor(hp))}")
        print(f"product_norm     {_fmt(norm)}")
        print(f"power_term       {_fmt(e_sup_f**hp.p if e_sup_f > 0 else 0.0)}")
        print(f"bound            {_fmt(bound)}")
        return EXIT_OK
    if args.form == "apriori":
        inp = AprioriInputs(
            p=_require(args, "p"),
            L=_require(args, "L"),
            T=_require(args, "T"),
            h0=_require(args, "h0"),
            x0_norm_sq=_require(args, "x0sq"),
            g_x0_norm_sq=_require(args, "gx0sq"),
        )
        parts = apriori_bound_parts(inp)
        for key in ("prefactor", "growth_factor", "power_term", "bound"):
            print(f"{key:<16} {_fmt(parts[key])}")
        return EXIT_OK
    raise ConfigError(f"unknown bound form {args.form!r}")


def _require(args, name):
    value = getattr(args, name, None)
    if value is None:
        raise ConfigError(f"--{name.replace('_', '-')} is required for this form")
    return value


def _positive(args, name, default, kind=float):
    """The flag's value, or ``default`` when it is omitted.

    An explicit value (from the command line or the config file, both
    already of the flag's type) must be > 0 and not inf; it is never
    replaced by the default.
    """
    value = getattr(args, name, None)
    if value is None:
        return default
    flag = f"--{name.replace('_', '-')}"
    if not value > 0:
        raise ConfigError(f"{flag} must be a positive {kind.__name__}, got {value!r}")
    if value == math.inf:
        raise ConfigError(f"{flag} must be finite, got {value!r}")
    return value


def _exponent(args) -> float:
    """--p, the moment exponent, which must lie in (0,1)."""
    p = _require(args, "p")
    if not 0.0 < p < 1.0:
        raise ConfigError(f"--p must lie in (0,1), got {p}")
    return p


def _sample_count(args, name, default):
    """A Monte Carlo sample count: at least 2, so a standard error exists."""
    n = _positive(args, name, default, int)
    if n < 2:
        raise ConfigError(f"--{name} must be at least 2, got {n}")
    return n


# ---------------------------------------------------------------------------
# gronwall


def _cmd_gronwall(args) -> int:
    if args.csv is not None:
        f_vals, g_vals = _read_fg_csv(args.csv)
    else:
        if args.f is None or args.g is None:
            raise ConfigError("provide either --csv or both --f and --g")
        f_vals, g_vals = args.f, args.g
    n = args.n if args.n is not None else len(f_vals) - 1
    f = RealSequence(f_vals)
    g = RealSequence(g_vals)
    envelope = gronwall_recursive_envelope(f, g, n)
    closed = [gronwall_closed_form(f, g, k) for k in range(n + 1)]
    rows = [
        (k, f[k], g[k], closed[k], envelope[k])
        for k in range(n + 1)
    ]
    _write_csv(args.output, ["index", "f", "g", "closed_form", "envelope"], rows)
    return EXIT_OK


def _read_fg_csv(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"f", "g"} <= set(reader.fieldnames):
                raise ConfigError(f"CSV file {path} needs columns 'f' and 'g'")
            f_vals, g_vals = [], []
            for row in reader:
                f_vals.append(float(row["f"]))
                g_vals.append(float(row["g"]))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"non-numeric entry in {path}: {exc}") from exc
    if not f_vals:
        raise ConfigError(f"CSV file {path} holds no data rows")
    return f_vals, g_vals


# ---------------------------------------------------------------------------
# martingale


def _cmd_martingale(args) -> int:
    if args.action == "remark-constants":
        rc = remark_constants(_require(args, "p"))
        print(f"lower            {_fmt(rc.lower)}")
        print(f"upper            {_fmt(rc.upper)}")
        print(f"ratio            {_fmt(rc.ratio)}")
        return EXIT_OK
    if args.action == "enumerate":
        p = _require(args, "p")
        n = _require(args, "n")
        exp = walk_functional_expectations(n, [p], stop_level=args.stop_level)
        check = lemma_bound_ratio(p, exp.e_sup_p[p], exp.e_neg_inf)
        print(f"e_sup_p          {_fmt(exp.e_sup_p[p])}")
        print(f"e_neg_inf        {_fmt(exp.e_neg_inf)}")
        print(f"ratio            {_fmt(check.ratio)}")
        print(f"upper            {_fmt(check.upper)}")
        holds = check.degenerate or check.ratio <= check.upper + 1e-12
        print(f"holds            {holds}")
        return EXIT_OK if holds else EXIT_VERIFY
    if args.action == "estimate-sup":
        p = _exponent(args)
        n = _sample_count(args, "samples", 1_000_000)
        seed = _resolve_seed(args.seed)
        plan = StreamPlan(seed, workers=_positive(args, "workers", 1, int))
        est = estimate_expectation(SupStoppedBmPowerSampler(p), n, plan,
                                   z=_positive(args, "z", DEFAULT_Z))
        reference = remark_constants(p).lower
        payload = {
            "kind": "estimate",
            "inputs": {"p": p, "n_samples": n, "master_seed": seed,
                       "chunk_size": CHUNK_SIZE, "z_value": est.z_value},
            "estimate": est.to_dict(),
            "reference": reference,
        }
        print(f"mean             {_fmt(est.mean)}")
        print(f"std_error        {_fmt(est.std_error)}")
        print(f"ci_halfwidth     {_fmt(est.ci_halfwidth)}")
        print(f"reference        {_fmt(reference)}")
        if args.output:
            _write_json(args.output, payload)
        return EXIT_OK
    raise ConfigError(f"unknown martingale action {args.action!r}")


# ---------------------------------------------------------------------------
# bem


def _flag(name) -> str:
    """A problem parameter's flag: one that abbreviates a Python keyword
    (which cannot name a parameter) is spelled as the keyword."""
    return "--" + next((k for k in keyword.kwlist if k.startswith(name)), name)


def _add_problem_flags(parser) -> None:
    """--problem and one flag per zoo problem parameter: a comma-separated
    list where some problem's default is a tuple (a planar x0), else a number."""
    zoo = zoo_parameters()
    parser.add_argument("--problem", choices=list(zoo))
    for name in dict.fromkeys(name for params in zoo.values() for name in params):
        vector = any(isinstance(params.get(name), tuple) for params in zoo.values())
        parser.add_argument(_flag(name), dest=name, type=_float_list if vector else float)


def _build_problem(args):
    zoo = zoo_parameters()
    label = getattr(args, "problem", None)
    if label is None:
        raise ConfigError("--problem is required")
    if label not in zoo:
        raise ConfigError(f"unknown problem {label!r}; registered: {', '.join(zoo)}")
    taken = zoo[label]
    given = {name: getattr(args, name) for params in zoo.values() for name in params
             if getattr(args, name) is not None}
    foreign = sorted(_flag(name) for name in given if name not in taken)
    if foreign:
        raise ConfigError(f"problem {label!r} does not take {', '.join(foreign)}; "
                          f"it takes {', '.join(_flag(name) for name in taken)}")
    for name, value in given.items():
        if isinstance(value, list):  # a list flag: as long as a tuple default, else one number
            vector = isinstance(taken[name], tuple)
            size = len(taken[name]) if vector else 1
            if len(value) != size:
                raise ConfigError(f"problem {label!r} takes {size} number(s) for "
                                  f"{_flag(name)}, got {value}")
            given[name] = tuple(value) if vector else value[0]
    return make_problem(label, **given)


def _cmd_bem(args) -> int:
    if args.action != "simulate":
        raise ConfigError(f"unknown bem action {args.action!r}")
    _merge_config(args)
    _check_finite(args)
    problem = _build_problem(args)
    h = _require(args, "h")
    T = _require(args, "T")
    h0 = args.h0
    if h0 is None:
        h0 = 0.999 * 0.5 / problem.L if problem.L > 0 else 0.9999
    cfg = BemConfig(h=h, h0=h0, T=T)
    cfg.validate_for(problem)
    p_list = args.p_list if args.p_list is not None else []
    seed = _resolve_seed(args.seed)
    plan = StreamPlan(seed)
    traj = simulate_trajectory(problem, cfg, p_list, plan.path_stream(0))

    header = ["j", "t"] + [f"y{i}" for i in range(problem.d)] + ["z_increment", "iterations"]
    rows = []
    for j in range(traj.states.shape[0]):
        row = [j, j * cfg.h] + [traj.states[j, i] for i in range(problem.d)]
        if j == 0:
            row += ["", ""]
        else:
            row += [traj.z_increments[j - 1], int(traj.solver_iterations[j - 1])]
        rows.append(row)
    _write_csv(args.output, header, rows)
    for p, val in traj.sup_functional_p.items():
        print(f"sup_functional p={_fmt(p)}: {_fmt(val)}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    if args.action == "theorem":
        _merge_config(args)
        p = _exponent(args)
        horizon = args.horizon if args.horizon is not None else 10
        if horizon < 0:
            raise ConfigError(f"--horizon must be >= 0, got {horizon}")
        n_paths = _sample_count(args, "paths", 100_000)
        seed = _resolve_seed(args.seed)
        plan = StreamPlan(seed, workers=_positive(args, "workers", 1, int))
        z = _positive(args, "z", DEFAULT_Z)
        _check_finite(args)
        all_systems = {s.label: s for s in standard_synthetic_systems(horizon)}
        if args.systems is not None:
            wanted = [s.strip() for s in args.systems.split(",")]
            unknown = [w for w in wanted if w not in all_systems]
            if unknown:
                raise ConfigError(
                    f"unknown systems {unknown}; available: {sorted(all_systems)}"
                )
            systems = [all_systems[w] for w in wanted]
        else:
            systems = list(all_systems.values())
        report = verify_theorem_on_synthetic(systems, p, n_paths, plan, z=z)
        payload = report.to_dict()
        _emit_verify(args, payload,
                     ["system", "mean", "std_error", "ci_halfwidth", "bound", "passed"],
                     [(r.system, r.estimate.mean, r.estimate.std_error,
                       r.estimate.ci_halfwidth, r.bound, r.passed) for r in report.rows])
        return EXIT_OK if report.all_passed else EXIT_VERIFY

    if args.action == "apriori":
        _merge_config(args)
        p = _exponent(args)
        n_paths = _sample_count(args, "paths", 100_000)
        seed = _resolve_seed(args.seed)
        plan = StreamPlan(seed, workers=_positive(args, "workers", 1, int))
        z = _positive(args, "z", DEFAULT_Z)
        fail_threshold = args.fail_threshold
        if fail_threshold is None:
            fail_threshold = 0.0
        elif not 0.0 <= fail_threshold <= 1.0:
            raise ConfigError(f"--fail-threshold must lie in [0, 1], got {fail_threshold}")
        _check_finite(args)
        problem = _build_problem(args)
        T = _require(args, "T")
        h0 = _require(args, "h0")
        h_grid = _require(args, "h_grid")
        if not 2.0 * h0 * problem.L < 1.0:
            raise ConfigError(
                f"need 2*h0*L < 1, got {2.0 * h0 * problem.L} for L={problem.L}"
            )
        configs = [BemConfig(h=h, h0=h0, T=T) for h in h_grid]
        report = verify_apriori(problem, configs, p, n_paths, plan, z=z,
                                fail_threshold=fail_threshold)
        payload = report.to_dict()
        _emit_verify(args, payload,
                     ["h", "n_steps", "mean", "std_error", "ci_halfwidth",
                      "bound", "passed"],
                     [(r.h, r.n_steps, r.estimate.mean, r.estimate.std_error,
                       r.estimate.ci_halfwidth, report.bound, r.passed)
                      for r in report.rows])
        return EXIT_OK if report.all_passed else EXIT_VERIFY

    raise ConfigError(f"unknown verify action {args.action!r}")


def _emit_verify(args, payload, csv_header, csv_rows) -> None:
    widths = [max(len(h), 22) for h in csv_header]
    line = "  ".join(h.ljust(w) for h, w in zip(csv_header, widths))
    print(line)
    for row in csv_rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
    print(f"all_passed: {payload['all_passed']}")
    if getattr(args, "output", None):
        _write_json(args.output, payload)
    if getattr(args, "csv", None):
        _write_csv(args.csv, csv_header, csv_rows)


# ---------------------------------------------------------------------------
# parser


def _add_config_flag(parser) -> None:
    """--config, a JSON object keyed by the flags declared before it."""
    parser.add_argument("--config", help="JSON file of flag values (explicit flags win)")
    parser.set_defaults(config_flags={
        action.dest: action for action in parser._actions
        if action.dest not in ("help", "config")
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgronwall",
        description="Discrete stochastic Gronwall bounds, martingale "
                    "inequality checks, and implicit Euler-Maruyama verification.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate one of the closed-form bounds")
    b.add_argument("--form", required=True,
                   choices=["holder", "deterministic-G", "random-G", "apriori"])
    b.add_argument("--p", type=float)
    b.add_argument("--nu", type=float)
    b.add_argument("--G", type=_float_list, help="comma-separated weights")
    b.add_argument("--n", type=int)
    b.add_argument("--e-sup-f", dest="e_sup_f", type=float)
    b.add_argument("--g-norm", dest="g_norm", type=float)
    b.add_argument("--L", type=float)
    b.add_argument("--T", type=float)
    b.add_argument("--h0", type=float)
    b.add_argument("--x0sq", type=float)
    b.add_argument("--gx0sq", type=float)
    # no --config here, but the flag table lets _check_finite see every flag
    b.set_defaults(func=_cmd_bound,
                   config_flags={a.dest: a for a in b._actions if a.dest != "help"})

    g = sub.add_parser("gronwall", help="closed-form bounds and envelope for f, g")
    g.add_argument("--f", type=_float_list)
    g.add_argument("--g", type=_float_list)
    g.add_argument("--csv", help="CSV file with columns f, g")
    g.add_argument("--n", type=int)
    g.add_argument("--output", help="output CSV path (default stdout)")
    g.set_defaults(func=_cmd_gronwall)

    m = sub.add_parser("martingale", help="martingale inequality tools")
    msub = m.add_subparsers(dest="action", required=True)
    m1 = msub.add_parser("remark-constants", help="constant window at exponent p")
    m1.add_argument("--p", type=float, required=True)
    m2 = msub.add_parser("enumerate", help="exact expectations over all sign walks")
    m2.add_argument("--p", type=float, required=True)
    m2.add_argument("--n", type=int, required=True)
    m2.add_argument("--stop-level", dest="stop_level", type=float)
    m3 = msub.add_parser("estimate-sup", help="Monte Carlo E[(sup stopped BM)^p]")
    m3.add_argument("--p", type=float, required=True)
    m3.add_argument("--samples", type=int)
    m3.add_argument("--seed", type=int)
    m3.add_argument("--workers", type=int)
    m3.add_argument("--z", type=float)
    m3.add_argument("--output")
    m.set_defaults(func=_cmd_martingale)

    be = sub.add_parser("bem", help="implicit Euler-Maruyama simulation")
    besub = be.add_subparsers(dest="action", required=True)
    bs = besub.add_parser("simulate", help="simulate one trajectory to CSV")
    _add_problem_flags(bs)
    bs.add_argument("--h", type=float)
    bs.add_argument("--h0", type=float)
    bs.add_argument("--T", type=float)
    bs.add_argument("--seed", type=int)
    bs.add_argument("--p-list", dest="p_list", type=_float_list)
    bs.add_argument("--output")
    _add_config_flag(bs)
    be.set_defaults(func=_cmd_bem)

    v = sub.add_parser("verify", help="Monte Carlo verification experiments")
    vsub = v.add_subparsers(dest="action", required=True)
    vt = vsub.add_parser("theorem", help="moment bound on synthetic recursion systems")
    vt.add_argument("--p", type=float)
    vt.add_argument("--paths", type=int)
    vt.add_argument("--horizon", type=int)
    vt.add_argument("--systems", help="comma-separated subset of system labels")
    vt.add_argument("--seed", type=int)
    vt.add_argument("--workers", type=int)
    vt.add_argument("--z", type=float)
    vt.add_argument("--output", help="JSON report path")
    vt.add_argument("--csv", help="CSV table path")
    _add_config_flag(vt)
    va = vsub.add_parser("apriori", help="step-size robustness of the a priori bound")
    _add_problem_flags(va)
    va.add_argument("--p", type=float)
    va.add_argument("--T", type=float)
    va.add_argument("--h0", type=float)
    va.add_argument("--h-grid", dest="h_grid", type=_float_list)
    va.add_argument("--paths", type=int)
    va.add_argument("--seed", type=int)
    va.add_argument("--workers", type=int)
    va.add_argument("--z", type=float)
    va.add_argument("--fail-threshold", dest="fail_threshold", type=float)
    va.add_argument("--output", help="JSON report path")
    va.add_argument("--csv", help="CSV table path")
    _add_config_flag(va)
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except EstimateAbortedError as exc:
        print(f"estimate aborted: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
