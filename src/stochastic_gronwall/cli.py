"""Command-line front end.

Subcommands: bound, gronwall, martingale, bem, verify. Each flag of a
leaf command is declared once, as a :class:`Flag` with its
:class:`Domain`, default and help text. Before a command runs, the
``--config`` JSON file (where the command has one) fills flags left
unset, every given value is checked against its domain, and defaults are
filled in. Exit codes: 0 success, 2 config error, 3 numerical-contract
violation, 4 solver failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import keyword
import math
import os
import re
import sys
from dataclasses import asdict
from typing import NamedTuple

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
    sample_columns,
    standard_synthetic_systems,
    verify_apriori,
    verify_theorem_on_synthetic,
)
from .sde import BemConfig, make_problem, simulate_trajectory, zoo_parameters
from .sequences import (
    gronwall_closed_form,
    gronwall_recursive_envelope,
    real_sequence,
)
from .streams import CHUNK_SIZE, MAX_CHUNK_VALUES, StreamPlan

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


# ---------------------------------------------------------------------------
# flag domains


class Domain(NamedTuple):
    """The values a flag accepts.

    ``type`` parses command-line text; a config file may give a value of
    the ``json`` types (a list flag: one number, a list of them or their
    comma-separated text), named ``expected`` in errors. A given value
    must pass every rule, a test and the phrase that says what it
    requires. A one-of-a-set domain also maps each of its ``choices`` to
    the flags that choice takes and their defaults.
    """

    type: object
    json: tuple
    expected: str
    rules: tuple = ()
    choices: dict = None


def _finite(value) -> bool:
    """The number, or each number of a list, is finite; an integer from a
    config file beyond the float range is not."""
    try:
        return all(math.isfinite(v) for v in (value if isinstance(value, list) else [value]))
    except OverflowError:
        return False


_FINITE = (_finite, "be finite")
_NUMBER = (float, (int, float), "a number")
_INTEGER = (int, (int,), "an integer")

TEXT = Domain(str, (str,), "a string")
INTEGER = Domain(*_INTEGER)
REAL = Domain(*_NUMBER, (_FINITE,))
REALS = Domain(_float_list, (int, float), "a number or a list of numbers", (_FINITE,))
POSITIVE = Domain(*_NUMBER, ((lambda v: v > 0, "be a positive float"), _FINITE))
POSITIVE_INT = Domain(*_INTEGER, ((lambda v: v > 0, "be a positive int"),))
EXPONENT = Domain(*_NUMBER, ((lambda v: 0 < v < 1, "lie in (0,1)"),))
FRACTION = Domain(*_NUMBER, ((lambda v: 0 <= v <= 1, "lie in [0, 1]"),))
HORIZON = Domain(*_INTEGER, ((lambda v: v >= 0, "be >= 0"),))
COUNT = Domain(*_INTEGER, ((lambda v: v >= 2, "be at least 2"),))  # so a standard error exists
SEED = Domain(*_INTEGER, ((lambda v: 0 <= v < 2**64, "lie in [0, 2**64)"),))


def _one_of(choices: dict) -> Domain:
    return Domain(str, (str,), "a string",
                  ((lambda v: v in choices, f"be one of {', '.join(choices)}"),), choices)


REQUIRED = object()  # the default of a flag that must be given


class Flag(NamedTuple):
    """One flag of a leaf command.

    An omitted flag takes the value of the environment variable ``env``
    if that is set, else ``default`` (``REQUIRED``: the flag must be
    given; None: the command decides). ``dest`` overrides the attribute
    and config key derived from the option.
    """

    option: str
    domain: Domain
    help: str
    default: object = None
    env: str = None
    dest: str = None

    @property
    def key(self) -> str:
        return self.dest or self.option[2:].replace("-", "_")


def _help(flag: Flag, selector: Flag = None) -> str:
    """The flag's help line, written from its declaration; ``selector`` is
    the command's one-of-a-set flag, if it has one."""
    notes = [f"must {rule}" for _, rule in flag.domain.rules]
    if flag.default is REQUIRED:
        notes.append("required")
    elif flag.env is not None:
        notes.append(f"default ${flag.env}, else {flag.default}")
    elif flag.default is not None:
        notes.append(f"default {flag.default}")
    takers = [c for c, taken in (selector.domain.choices if selector else {}).items()
              if flag.key in taken]
    if takers:
        notes.append(f"for {selector.key} {', '.join(takers)}")
    return "; ".join([flag.help, *notes])


def _merge_config(args) -> None:
    """Fill flags left unset from the ``--config`` file (flags win).

    Its keys are the command's flag names, its values of the flags' JSON types.
    """
    path = getattr(args, "config", None)
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(config) - set(args.config_flags)
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; allowed: {sorted(args.config_flags)}"
        )
    for key, value in config.items():
        domain = args.flags[key].domain
        items = [value]
        if domain.type is _float_list:
            value = _float_list(value) if isinstance(value, str) else value
            items = value = value if isinstance(value, list) else [value]
        if not all(isinstance(v, domain.json) and not isinstance(v, bool) for v in items):
            raise ConfigError(f"config key {key!r} must be {domain.expected}, got {value!r}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _resolve(args) -> None:
    """Merge the config file, check every given value against its flag's
    domain, reject flags the chosen one-of-a-set value does not take,
    then fill the defaults."""
    _merge_config(args)
    flags = args.flags
    for key, flag in flags.items():
        value, source = getattr(args, key), flag.option
        if value is None and flag.env is not None and flag.env in os.environ:
            source, text = f"${flag.env}", os.environ[flag.env]
            try:
                value = flag.domain.type(text)
            except ValueError as exc:
                raise ConfigError(f"{source} must be {flag.domain.expected}, got {text!r}") from exc
            setattr(args, key, value)
        if value is None:
            continue
        for test, rule in flag.domain.rules:
            if not test(value):
                raise ConfigError(f"{source} must {rule}, got {value!r}")
    defaults = {key: flag.default for key, flag in flags.items()}
    selector = next((key for key, flag in flags.items() if flag.domain.choices), None)
    if selector is not None and getattr(args, selector) is not None:
        label, choices = getattr(args, selector), flags[selector].domain.choices
        taken = choices[label]
        foreign = sorted({flags[key].option for taking in choices.values() for key in taking
                          if key not in taken and getattr(args, key) is not None})
        if foreign:
            raise ConfigError(f"{selector} {label!r} does not take {', '.join(foreign)}; "
                              f"it takes {', '.join(flags[key].option for key in taken)}")
        defaults.update(taken)
    for key, default in defaults.items():
        if getattr(args, key) is None:
            if default is REQUIRED:
                raise ConfigError(f"{flags[key].option} is required")
            setattr(args, key, default)


def _write_json(path, payload: dict) -> None:
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


# ---------------------------------------------------------------------------
# bound

# The flags each form takes, mapped to their defaults; deterministic-G's
# --n defaults to the length of --G.
_BOUND_FORMS = {
    "holder": {"p": REQUIRED, "nu": 1.0},
    "deterministic-G": {"p": REQUIRED, "G": REQUIRED, "e_sup_f": REQUIRED, "n": None},
    "random-G": {"p": REQUIRED, "nu": REQUIRED, "g_norm": REQUIRED, "e_sup_f": REQUIRED, "n": 0},
    "apriori": dict.fromkeys(["p", "L", "T", "h0", "x0sq", "gx0sq"], REQUIRED),
}


def _cmd_bound(args) -> int:
    if args.form == "holder":
        prefactor = holder_prefactor(HolderParams(p=args.p, nu=args.nu))
        parts = {"prefactor": prefactor, "bound": prefactor}
    elif args.form == "deterministic-G":
        n = len(args.G) if args.n is None else args.n
        parts = theorem_bound_deterministic_G(args.p, args.G, n, args.e_sup_f)
    elif args.form == "random-G":
        hp = HolderParams(p=args.p, nu=args.nu)
        parts = theorem_bound_random_G(hp, args.g_norm, args.n, args.e_sup_f)
    else:
        parts = apriori_bound_parts(AprioriInputs(
            p=args.p, L=args.L, T=args.T, h0=args.h0,
            x0_norm_sq=args.x0sq, g_x0_norm_sq=args.gx0sq,
        ))
    for key, value in parts.items():
        print(f"{key:<16} {_fmt(value)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gronwall


def _cmd_gronwall(args) -> int:
    if args.csv is not None and args.f is None and args.g is None:
        f_vals, g_vals = _read_fg_csv(args.csv)
    elif args.csv is None and args.f is not None and args.g is not None:
        f_vals, g_vals = args.f, args.g
    else:
        raise ConfigError("provide either --csv or both --f and --g")
    f = real_sequence(f_vals)
    g = real_sequence(g_vals)
    envelope = gronwall_recursive_envelope(f, g, args.n)
    closed = [gronwall_closed_form(f, g, k) for k in range(len(envelope))]
    rows = zip(range(len(envelope)), f, g, closed, envelope)
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


def _cmd_remark_constants(args) -> int:
    rc = remark_constants(args.p)
    print(f"lower            {_fmt(rc.lower)}")
    print(f"upper            {_fmt(rc.upper)}")
    print(f"ratio            {_fmt(rc.ratio)}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    p = args.p
    exp = walk_functional_expectations(args.n, [p], stop_level=args.stop_level)
    check = lemma_bound_ratio(p, exp.e_sup_p[p], exp.e_neg_inf)
    print(f"e_sup_p          {_fmt(exp.e_sup_p[p])}")
    print(f"e_neg_inf        {_fmt(exp.e_neg_inf)}")
    print(f"ratio            {_fmt(check.ratio)}")
    print(f"upper            {_fmt(check.upper)}")
    holds = check.degenerate or check.ratio <= check.upper + 1e-12
    print(f"holds            {holds}")
    return EXIT_OK if holds else EXIT_VERIFY


def _cmd_estimate_sup(args) -> int:
    p, n = args.p, args.samples
    (chunks,) = sample_columns(SupStoppedBmPowerSampler(p), n,
                               StreamPlan(args.seed, workers=args.workers))
    est = estimate_expectation(chunks, n, z=args.z)
    reference = remark_constants(p).lower
    payload = {
        "kind": "estimate",
        "inputs": {"p": p, "n_samples": n, "master_seed": args.seed,
                   "chunk_size": CHUNK_SIZE, "z_value": est.z_value},
        "estimate": asdict(est),
        "reference": reference,
    }
    print(f"mean             {_fmt(est.mean)}")
    print(f"std_error        {_fmt(est.std_error)}")
    print(f"ci_halfwidth     {_fmt(est.ci_halfwidth)}")
    print(f"reference        {_fmt(reference)}")
    if args.output:
        _write_json(args.output, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bem


def _flag(name) -> str:
    """A problem parameter's flag: one that abbreviates a Python keyword
    (which cannot name a parameter) is spelled as the keyword."""
    return "--" + next((k for k in keyword.kwlist if k.startswith(name)), name)


def _problem_flags() -> list:
    """--problem and one flag per zoo problem parameter: a comma-separated
    list where some problem's default is a tuple (a planar x0), else a number."""
    zoo = zoo_parameters()
    flags = [Flag("--problem", _one_of(zoo), "SDE problem", REQUIRED)]
    for name in dict.fromkeys(name for params in zoo.values() for name in params):
        vector = any(isinstance(params.get(name), tuple) for params in zoo.values())
        flags.append(Flag(_flag(name), REALS if vector else REAL,
                          "problem parameter" + (" (comma-separated)" if vector else ""), dest=name))
    return flags


def _build_problem(args):
    """The chosen problem; a list flag gives as many numbers as a tuple
    default has, else one."""
    params = zoo_parameters()[args.problem]
    for name, default in params.items():
        value = getattr(args, name)
        if isinstance(value, list):
            size = len(default) if isinstance(default, tuple) else 1
            if len(value) != size:
                raise ConfigError(f"problem {args.problem!r} takes {size} number(s) for "
                                  f"{_flag(name)}, got {value}")
            value = tuple(value) if isinstance(default, tuple) else value[0]
        params[name] = value
    return make_problem(args.problem, **params)


def _cmd_bem(args) -> int:
    problem = _build_problem(args)
    h0 = args.h0
    if h0 is None:
        h0 = 0.999 * 0.5 / problem.L if problem.L > 0 else 0.9999
    cfg = BemConfig(h=args.h, h0=h0, T=args.T)
    traj = simulate_trajectory(problem, cfg, args.p_list, StreamPlan(args.seed).path_stream(0))

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


def _cmd_verify_theorem(args) -> int:
    all_systems = {s.label: s for s in standard_synthetic_systems(args.horizon)}
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
    report = verify_theorem_on_synthetic(systems, args.p, args.paths,
                                         StreamPlan(args.seed, workers=args.workers), z=args.z)
    return _emit_verify(args, report,
                        ["system", "mean", "std_error", "ci_halfwidth", "bound", "passed"])


def _cmd_verify_apriori(args) -> int:
    problem = _build_problem(args)
    configs = [BemConfig(h=h, h0=args.h0, T=args.T) for h in args.h_grid]
    report = verify_apriori(problem, configs, args.p, args.paths,
                            StreamPlan(args.seed, workers=args.workers), z=args.z,
                            fail_threshold=args.fail_threshold)
    return _emit_verify(args, report,
                        ["h", "n_steps", "mean", "std_error", "ci_halfwidth", "bound", "passed"])


def _emit_verify(args, report, columns) -> int:
    """Print the table, write --output and --csv, return the exit code. A
    column is a row key, or else a report key (apriori's single bound)."""
    rows = [[{**report, **row}[column] for column in columns] for row in report["rows"]]
    widths = [max(len(column), 22) for column in columns]
    print("  ".join(column.ljust(w) for column, w in zip(columns, widths)))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
    print(f"all_passed: {report['all_passed']}")
    if args.output:
        _write_json(args.output, report)
    if args.csv:
        _write_csv(args.csv, columns, rows)
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser

_EXPONENT = Flag("--p", EXPONENT, "moment exponent", REQUIRED)
_PATHS = Flag("--paths", COUNT, "Monte Carlo paths", 100_000)
_SEED = Flag("--seed", SEED, "master seed", 0, env=SEED_ENV_VAR)
_WORKERS = Flag("--workers", POSITIVE_INT, "worker processes (results do not depend on it); "
                "1 runs in the calling process and starts no pool", 1)
_Z = Flag("--z", POSITIVE, "normal quantile of the confidence interval", DEFAULT_Z)
_REPORT = Flag("--output", TEXT, "JSON report path")
_TABLE = Flag("--csv", TEXT, "CSV table path")


# Every negative number float() reads, for argparse to take as a value
# rather than an option: its own test knows only -1 and -1.5 (no exponent,
# -inf or -nan). No leaf option looks like one of these.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$",
                              re.IGNORECASE)


def _leaf(sub, name, help, func, flags, config=False) -> None:
    """A leaf command: one option per flag, with no argparse default, so
    that an omitted flag is None until _resolve fills it; ``config`` adds
    --config, whose keys are the flags' keys."""
    parser = sub.add_parser(name, help=help)
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    table = {flag.key: flag for flag in flags}
    selector = next((flag for flag in flags if flag.domain.choices), None)
    for flag in flags:
        parser.add_argument(flag.option, dest=flag.key, type=flag.domain.type,
                            help=_help(flag, selector))
    if config:
        parser.add_argument("--config", help="JSON file of flag values (explicit flags win)")
        parser.set_defaults(config_flags=table)
    parser.set_defaults(func=func, flags=table)


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

    _leaf(sub, "bound", "evaluate one of the closed-form bounds", _cmd_bound, [
        Flag("--form", _one_of(_BOUND_FORMS), "bound to evaluate", REQUIRED),
        Flag("--p", REAL, "moment exponent"),
        Flag("--nu", REAL, "Hoelder exponent on the weight product"),
        Flag("--G", REALS, "comma-separated weights"),
        Flag("--n", INTEGER, "horizon"),
        Flag("--e-sup-f", REAL, "E[sup_k F_k]"),
        Flag("--g-norm", REAL, "L^mu norm of the weight product"),
        Flag("--L", REAL, "one-sided Lipschitz constant"),
        Flag("--T", REAL, "time horizon"),
        Flag("--h0", REAL, "step-size cap"),
        Flag("--x0sq", REAL, "|X_0|^2"),
        Flag("--gx0sq", REAL, "|g(X_0)|^2"),
    ])
    _leaf(sub, "gronwall", "closed-form bounds and envelope for f, g", _cmd_gronwall, [
        Flag("--f", REALS, "comma-separated sequence f"),
        Flag("--g", REALS, "comma-separated weights g"),
        Flag("--csv", TEXT, "CSV file with columns f, g, instead of --f and --g"),
        Flag("--n", INTEGER, "last index (default: the last of f)"),
        Flag("--output", TEXT, "output CSV path (default stdout)"),
    ])

    msub = sub.add_parser("martingale", help="martingale inequality tools").add_subparsers(
        dest="action", required=True)
    _leaf(msub, "remark-constants", "constant window at exponent p", _cmd_remark_constants, [
        Flag("--p", REAL, "moment exponent", REQUIRED),
    ])
    _leaf(msub, "enumerate", "exact expectations over all sign walks", _cmd_enumerate, [
        Flag("--p", REAL, "moment exponent", REQUIRED),
        Flag("--n", INTEGER, "walk length", REQUIRED),
        Flag("--stop-level", REAL, "freeze each walk at its first visit at or below this level"),
    ])
    _leaf(msub, "estimate-sup", "Monte Carlo E[(sup stopped BM)^p]", _cmd_estimate_sup, [
        _EXPONENT, Flag("--samples", COUNT, "Monte Carlo samples", 1_000_000),
        _SEED, _WORKERS, _Z, _REPORT,
    ])

    besub = sub.add_parser("bem", help="implicit Euler-Maruyama simulation").add_subparsers(
        dest="action", required=True)
    _leaf(besub, "simulate", "simulate one trajectory to CSV", _cmd_bem, [
        *_problem_flags(),
        Flag("--h", REAL, "step size; its steps up to T, times the larger of the state and "
             f"noise dimensions, at most {MAX_CHUNK_VALUES}", REQUIRED),
        Flag("--h0", REAL, "step-size cap (default just below 1/(2L))"),
        Flag("--T", REAL, "time horizon", REQUIRED),
        _SEED,
        Flag("--p-list", REALS, "exponents of the sup functional to print", ()),
        Flag("--output", TEXT, "output CSV path (default stdout)"),
    ], config=True)

    vsub = sub.add_parser("verify", help="Monte Carlo verification experiments").add_subparsers(
        dest="action", required=True)
    _leaf(vsub, "theorem", "moment bound on synthetic recursion systems", _cmd_verify_theorem, [
        _EXPONENT, _PATHS,
        Flag("--horizon", HORIZON, f"recursion horizon; horizon + 1 times {CHUNK_SIZE} paths "
             f"at most {MAX_CHUNK_VALUES}", 10),
        Flag("--systems", TEXT, "comma-separated subset of system labels"),
        _SEED, _WORKERS, _Z, _REPORT, _TABLE,
    ], config=True)
    _leaf(vsub, "apriori", "step-size robustness of the a priori bound", _cmd_verify_apriori, [
        *_problem_flags(), _EXPONENT,
        Flag("--T", REAL, "time horizon", REQUIRED),
        Flag("--h0", REAL, "step-size cap", REQUIRED),
        Flag("--h-grid", REALS, "comma-separated step sizes; their steps in all, times "
             f"{CHUNK_SIZE} paths and the dimension, at most {MAX_CHUNK_VALUES}", REQUIRED),
        _PATHS, _SEED, _WORKERS, _Z,
        Flag("--fail-threshold", FRACTION, "largest tolerated share of failed paths", 0.0),
        _REPORT, _TABLE,
    ], config=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(args)
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
