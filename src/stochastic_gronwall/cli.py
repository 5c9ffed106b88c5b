"""Command-line front end.

Subcommands: bound, gronwall, martingale, bem, verify. Each flag of a
leaf command is declared once, as a :class:`Flag` with its
:class:`Domain`, default and help text. Before a command runs, the
``--config`` JSON file (where the command has one) fills flags left
unset, every given value is checked against its domain, and defaults are
filled in. Exit codes: 0 success, 2 config error, 3 numerical-contract
violation, 4 solver failure, 5 verification failure, 141 stdout closed
before the output was written. The closed-form commands load no numpy:
the commands that need ``mc`` and ``sde``, which load it, import them
when they run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import keyword
import math
import os
import re
import sys
from typing import NamedTuple, NoReturn

from . import __version__
from .bounds import (
    apriori_bound_parts,
    gronwall_closed_form,
    gronwall_recursive_envelope,
    holder_prefactor,
    theorem_bound_deterministic_G,
    theorem_bound_random_G,
)
from .errors import ConfigError, ContractViolationError, SolverError
from .martingales import (
    lemma_bound_ratio,
    remark_constants,
    walk_functional_expectations,
)
from .streams import CHUNK_SIZE, DEFAULT_Z, MAX_CHUNK_VALUES, MAX_WORKERS, StreamPlan

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process that SIGPIPE ends

SEED_ENV_VAR = "SGRONWALL_SEED"

_EPILOG = f"""exit codes:
  0  success
  2  configuration error (bad flags, config file, or parameter ranges)
  3  numerical-contract violation (invalid sequence data or parameters)
  4  solver failure (a path's state or a sample that is not finite)
  5  verification failure (at least one verdict did not pass)
  141  stdout closed before the output was written (as by `| head`)

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


# The JSON types a config file may give for a flag of each parse type (a list flag:
# one number, a list of them or their comma-separated text), named so in errors.
_CONFIG_TYPES = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    _float_list: ((int, float), "a number or a list of numbers"),
}


class Domain(NamedTuple):
    """The values a flag accepts.

    ``type`` parses command-line text and, through ``_CONFIG_TYPES``,
    sets what a config file may give. A given value must pass every
    rule, a test and the phrase that says what it requires. A
    one-of-a-set domain also maps each of its ``choices`` to the flags
    that choice takes and their defaults.
    """

    type: object
    rules: tuple = ()
    choices: dict = None
    writes: bool = False  # the value is a path the command writes


def _finite(value) -> bool:
    """The number, or each number of a list, is finite; an integer from a
    config file beyond the float range is not."""
    try:
        return all(math.isfinite(v) for v in (value if isinstance(value, list) else [value]))
    except OverflowError:
        return False


_FINITE = (_finite, "be finite")

TEXT = Domain(str)
OUTPUT = Domain(str, writes=True)
INTEGER = Domain(int)
REAL = Domain(float, (_FINITE,))
REALS = Domain(_float_list, (_FINITE,))
POSITIVE = Domain(float, ((lambda v: v > 0, "be a positive float"), _FINITE))
POSITIVE_INT = Domain(int, ((lambda v: v > 0, "be a positive int"),))
WORKERS = Domain(int, (*POSITIVE_INT.rules, (lambda v: v <= MAX_WORKERS,
                                             f"be at most {MAX_WORKERS}")))
EXPONENT = Domain(float, ((lambda v: 0 < v < 1, "lie in (0,1)"),))
HORIZON = Domain(int, ((lambda v: v >= 0, "be >= 0"),))
COUNT = Domain(int, ((lambda v: v >= 2, "be at least 2"),))  # so a standard error exists
# verify apriori's paths come in antithetic pairs, and its standard error needs two pair means
PAIRS = Domain(int, ((lambda v: v >= 4 and v % 2 == 0,
                      "be even and at least 4, as paths come in antithetic pairs"),))
SEED = Domain(int, ((lambda v: 0 <= v < 2**64, "lie in [0, 2**64)"),))


def _one_of(choices: dict) -> Domain:
    return Domain(str, ((lambda v: v in choices, f"be one of {', '.join(choices)}"),), choices)


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
        parse = args.flags[key].domain.type
        json_types, expected = _CONFIG_TYPES[parse]
        items = [value]
        if parse is _float_list:
            value = _float_list(value) if isinstance(value, str) else value
            items = value = value if isinstance(value, list) else [value]
        if not all(isinstance(v, json_types) and not isinstance(v, bool) for v in items):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
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
                expected = _CONFIG_TYPES[flag.domain.type][1]
                raise ConfigError(f"{source} must be {expected}, got {text!r}") from exc
            setattr(args, key, value)
        if value is None:
            continue
        for test, rule in flag.domain.rules:
            if not test(value):
                raise ConfigError(f"{source} must {rule}, got {value!r}")
        if flag.domain.writes and value != "-":  # "-" is stdout
            _check_writable(value)
    to_stdout = _to_stdout(args)
    if len(to_stdout) > 1:
        raise ConfigError(f"{' and '.join(to_stdout)} cannot both be - (stdout)")
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


def _check_writable(path) -> None:
    """A :class:`ConfigError` unless ``path`` is a writable file or a new name
    in a writable directory. Nothing is opened or created."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not (os.access(path, os.W_OK) if os.path.exists(path) else
                                   path and os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ConfigError(f"cannot write {path}: not a writable file path")


@contextlib.contextmanager
def _output(path):
    """stdout for None or "-", else the file at ``path`` opened for
    writing with no newline translation; an OSError of that file is a
    :class:`ConfigError`."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path, payload: dict) -> None:
    with _output(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows) -> None:
    import csv  # here, so that a run that writes or reads no CSV does not load it

    with _output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _print_pairs(pairs: dict, file=None) -> None:
    """One line per key, the key padded to 16 characters, then its value."""
    for key, value in pairs.items():
        print(f"{key:<16} {_fmt(value)}", file=file)


def _to_stdout(args) -> list:
    """The options of the command's outputs given as ``-``, stdout."""
    return [flag.option for key, flag in args.flags.items()
            if flag.domain.writes and getattr(args, key) == "-"]


def _text_stream(args):
    """Where a command prints its lines for people: stderr when one of its
    outputs is stdout, so that stdout holds that one document."""
    return sys.stderr if _to_stdout(args) else sys.stdout


# ---------------------------------------------------------------------------
# bound

# The flags each form takes, mapped to their defaults; deterministic-G's
# --n defaults to the length of --G.
_BOUND_FORMS = {
    "holder": {"p": REQUIRED, "nu": 1.0},
    "deterministic-G": {"p": REQUIRED, "G": REQUIRED, "e_sup_f": REQUIRED, "n": None},
    "random-G": {"p": REQUIRED, "nu": REQUIRED, "g_norm": REQUIRED, "e_sup_f": REQUIRED},
    "apriori": dict.fromkeys(["p", "L", "T", "h0", "x0sq", "gx0sq"], REQUIRED),
}


def _cmd_bound(args) -> int:
    if args.form == "holder":
        prefactor = holder_prefactor(args.p, args.nu)
        parts = {"prefactor": prefactor, "bound": prefactor}
    elif args.form == "deterministic-G":
        n = len(args.G) if args.n is None else args.n
        parts = theorem_bound_deterministic_G(args.p, args.G, n, args.e_sup_f)
    elif args.form == "random-G":
        parts = theorem_bound_random_G(args.p, args.nu, args.g_norm, args.e_sup_f)
    else:
        parts = apriori_bound_parts(args.p, args.L, args.T, args.h0, args.x0sq, args.gx0sq)
    _print_pairs(parts)
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
    envelope = gronwall_recursive_envelope(f_vals, g_vals, args.n)
    closed = gronwall_closed_form(f_vals, g_vals, args.n)
    rows = zip(range(len(envelope)), f_vals, g_vals, closed, envelope)
    _write_csv(args.output, ["index", "f", "g", "closed_form", "envelope"], rows)
    return EXIT_OK


def _read_fg_csv(path):
    import csv

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
    _print_pairs(remark_constants(args.p)._asdict())
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    p = args.p
    e_sup_p, e_neg_inf = walk_functional_expectations(args.n, p, stop_level=args.stop_level)
    check = lemma_bound_ratio(p, e_sup_p, e_neg_inf)
    holds = check.degenerate or check.ratio <= check.upper + 1e-12
    _print_pairs({"e_sup_p": e_sup_p, "e_neg_inf": e_neg_inf, "ratio": check.ratio,
                  "upper": check.upper, "holds": holds})
    return EXIT_OK if holds else EXIT_VERIFY


def _cmd_estimate_sup(args) -> int:
    from .mc import SupStoppedBmPowerSampler, estimate_expectation, sample_columns

    p, n = args.p, args.samples
    (chunks,) = sample_columns(SupStoppedBmPowerSampler(p), n,
                               StreamPlan(args.seed, workers=args.workers))
    est = estimate_expectation(chunks, n, z=args.z)
    reference = remark_constants(p).lower
    payload = {
        "kind": "estimate",
        "inputs": {"p": p, "n_samples": n, "master_seed": args.seed,
                   "chunk_size": CHUNK_SIZE, "z_value": est.z_value},
        "estimate": est._asdict(),
        "reference": reference,
    }
    _print_pairs({"mean": est.mean, "std_error": est.std_error,
                  "ci_halfwidth": est.ci_halfwidth, "reference": reference}, _text_stream(args))
    if args.output is not None:
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
    from .sde import zoo_parameters

    zoo = zoo_parameters()
    flags = [Flag("--problem", _one_of(zoo), "SDE problem", REQUIRED)]
    for name in dict.fromkeys(name for params in zoo.values() for name in params):
        vector = any(isinstance(params.get(name), tuple) for params in zoo.values())
        flags.append(Flag(_flag(name), REALS if vector else REAL,
                          "problem parameter" + (" (comma-separated)" if vector else ""), dest=name))
    return flags


def _build_problem(args):
    """The chosen problem; a list flag gives as many numbers as a tuple
    default has, else one, which ``make_problem`` reads as a number."""
    from .sde import make_problem, zoo_parameters

    params = zoo_parameters()[args.problem]
    for name, default in params.items():
        value = getattr(args, name)
        if isinstance(value, list):
            size = len(default) if isinstance(default, tuple) else 1
            if len(value) != size:
                raise ConfigError(f"problem {args.problem!r} takes {size} number(s) for "
                                  f"{_flag(name)}, got {value}")
        params[name] = value
    return make_problem(args.problem, **params)


def _cmd_bem(args) -> int:
    from .sde import simulate_trajectory

    problem = _build_problem(args)
    h0 = args.h0
    if h0 is None:
        h0 = 0.999 * 0.5 / problem.L if problem.L > 0 else 0.9999
    traj = simulate_trajectory(problem, args.h, h0, args.T, args.p_list,
                               StreamPlan(args.seed).path_stream(0))

    header = ["j", "t"] + [f"y{i}" for i in range(problem.d)] + ["z_increment"]

    def rows():
        """One row at a time, of Python values taken from one block of rows
        at a time: a list of them all would take many times the trajectory."""
        yield [0, 0.0, *traj.states[0].tolist(), ""]
        for lo in range(0, traj.z_increments.size, 4096):
            hi = lo + 4096
            block = zip(traj.states[lo + 1:hi + 1].tolist(), traj.z_increments[lo:hi].tolist())
            for j, (state, z) in enumerate(block, lo + 1):
                yield [j, j * args.h, *state, z]

    _write_csv(args.output, header, rows())
    for p, val in traj.sup_functional_p.items():
        print(f"sup_functional p={_fmt(p)}: {_fmt(val)}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify_theorem(args) -> int:
    from .mc import standard_synthetic_systems, verify_theorem_on_synthetic

    all_systems = {s.label: s for s in standard_synthetic_systems(args.horizon)}
    wanted = all_systems if args.systems is None else [s.strip() for s in args.systems.split(",")]
    unknown = [w for w in wanted if w not in all_systems]
    if unknown:
        raise ConfigError(f"unknown systems {unknown}; available: {sorted(all_systems)}")
    systems = [all_systems[w] for w in wanted]
    report = verify_theorem_on_synthetic(systems, args.p, args.paths,
                                         StreamPlan(args.seed, workers=args.workers), z=args.z)
    return _emit_verify(args, report,
                        ["system", "mean", "std_error", "ci_halfwidth", "bound", "passed"])


def _cmd_verify_apriori(args) -> int:
    from .mc import verify_apriori

    problem = _build_problem(args)
    report = verify_apriori(problem, args.h_grid, args.h0, args.T, args.p, args.paths,
                            StreamPlan(args.seed, workers=args.workers), z=args.z)
    return _emit_verify(args, report,
                        ["h", "n_steps", "mean", "std_error", "ci_halfwidth", "bound", "passed"])


def _emit_verify(args, report, columns) -> int:
    """Print the table, write --output and --csv, return the exit code. A
    column is a row key, or else a report key (apriori's single bound)."""
    rows = [[{**report, **row}[column] for column in columns] for row in report["rows"]]
    widths = [max(len(column), 22) for column in columns]
    text = _text_stream(args)
    print("  ".join(column.ljust(w) for column, w in zip(columns, widths)), file=text)
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)), file=text)
    print(f"all_passed: {report['all_passed']}", file=text)
    if args.output is not None:
        _write_json(args.output, report)
    if args.csv is not None:
        _write_csv(args.csv, columns, rows)
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser

_EXPONENT = Flag("--p", EXPONENT, "moment exponent", REQUIRED)
_PATHS = Flag("--paths", COUNT, "Monte Carlo paths", 100_000)
_PAIRED_PATHS = _PATHS._replace(domain=PAIRS)
_SEED = Flag("--seed", SEED, "master seed", 0, env=SEED_ENV_VAR)
_WORKERS = Flag("--workers", WORKERS, "worker processes (results do not depend on it); "
                "1 runs in the calling process and starts no pool; more pay only when "
                "each has several 4096-sample chunks to work (see the README)", 1)
_Z = Flag("--z", POSITIVE, "normal quantile of the confidence interval", DEFAULT_Z)
_REPORT = Flag("--output", OUTPUT, "JSON report path (- for stdout, which moves the printed "
                "lines to stderr)")
_TABLE = Flag("--csv", OUTPUT, "CSV table path (- for stdout, as for --output; not both)")


# Every negative number float() reads, alone or first in a comma-separated
# list, for argparse to take as a value rather than an option: its own test
# knows only -1 and -1.5 (no exponent, -inf, -nan or list). No leaf option
# looks like one of these.
_UNSIGNED = r"(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan"
_NEGATIVE_NUMBER = re.compile(rf"-({_UNSIGNED})(,([-+]?({_UNSIGNED}))?)*$", re.IGNORECASE)


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


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command line ``argv``: that one
    builds the leaves whose flags come from the SDE zoo (``sde`` loads numpy)
    only if its first non-option token names their group. No top-level
    option takes a value, so that token is the group."""
    group = None if argv is None else next((a for a in argv if not a.startswith("-")), None)
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
        Flag("--output", OUTPUT, "output CSV path (default stdout)"),
    ])

    msub = sub.add_parser("martingale", help="martingale inequality tools").add_subparsers(
        dest="action", required=True)
    _leaf(msub, "remark-constants", "constant window at exponent p", _cmd_remark_constants, [
        Flag("--p", REAL, "moment exponent", REQUIRED),
    ])
    _leaf(msub, "enumerate", "exact expectations over all 2^n sign walks, from counts of "
          "walks by reflection", _cmd_enumerate, [
        Flag("--p", REAL, "moment exponent", REQUIRED),
        Flag("--n", INTEGER, f"walk length; n + 1 times {CHUNK_SIZE} at most "
             f"{MAX_CHUNK_VALUES}, the work limit of a synthetic horizon", REQUIRED),
        Flag("--stop-level", REAL, "freeze each walk at its first visit at or below this level"),
    ])
    _leaf(msub, "estimate-sup", "Monte Carlo E[(sup stopped BM)^p]", _cmd_estimate_sup, [
        _EXPONENT, Flag("--samples", COUNT, "Monte Carlo samples", 1_000_000),
        _SEED, _WORKERS, _Z, _REPORT,
    ])

    besub = sub.add_parser("bem", help="implicit Euler-Maruyama simulation").add_subparsers(
        dest="action", required=True)
    if argv is None or group == "bem":
        _leaf(besub, "simulate", "simulate one trajectory to CSV", _cmd_bem, [
            *_problem_flags(),
            Flag("--h", REAL, "step size; its steps up to T, times the larger of the state and "
                 f"noise dimensions, at most {MAX_CHUNK_VALUES}", REQUIRED),
            Flag("--h0", REAL, "step-size cap (default just below 1/(2L))"),
            Flag("--T", REAL, "time horizon", REQUIRED),
            _SEED,
            Flag("--p-list", REALS, "exponents of the sup functional to print", ()),
            Flag("--output", OUTPUT, "output CSV path (default stdout)"),
        ], config=True)

    vsub = sub.add_parser("verify", help="Monte Carlo verification experiments").add_subparsers(
        dest="action", required=True)
    _leaf(vsub, "theorem", "moment bound on synthetic recursion systems", _cmd_verify_theorem, [
        _EXPONENT, _PATHS,
        Flag("--horizon", HORIZON, f"recursion horizon; horizon + 1 times {CHUNK_SIZE} paths "
             f"at most {MAX_CHUNK_VALUES}, and at most 7346, where the walk-coupled system's "
             "largest X_n, (2*horizon + 1) * 1.1^horizon, is still a finite float64", 10),
        Flag("--systems", TEXT, "comma-separated subset of system labels"),
        _SEED, _WORKERS, _Z, _REPORT, _TABLE,
    ], config=True)
    if argv is None or group == "verify":
        _leaf(vsub, "apriori", "step-size robustness of the a priori bound", _cmd_verify_apriori, [
            *_problem_flags(), _EXPONENT,
            Flag("--T", REAL, "time horizon", REQUIRED),
            Flag("--h0", REAL, "step-size cap", REQUIRED),
            Flag("--h-grid", REALS, "comma-separated step sizes; their steps in all, times "
                 f"{CHUNK_SIZE} paths and the dimension, at most {MAX_CHUNK_VALUES}", REQUIRED),
            _PAIRED_PATHS, _SEED, _WORKERS, _Z,
            _REPORT, _TABLE,
        ], config=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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


def run() -> NoReturn:
    """The process entry of ``sgronwall`` and ``python -m stochastic_gronwall.cli``.

    Runs :func:`main` on the command line, flushes stdout and stderr and
    ends the process with ``os._exit`` and main's exit code: the
    interpreter's teardown (exit handlers, the collections that
    finalization runs over every object numpy and this package create
    at import) is work a finished run does not need. A stdout whose
    reader has gone (``| head``) ends the run with ``EXIT_PIPE`` and no
    traceback; what is still buffered is dropped. Any other exception
    propagates with its traceback and the interpreter exits as usual.
    Only this entry ends the process: ``main`` returns to its caller.
    """
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        status = EXIT_PIPE
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    sys.exit(run())
