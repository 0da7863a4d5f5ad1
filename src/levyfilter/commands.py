"""Command-line entry point: the parser, the exit codes, the set-up that
``validate`` and ``run`` share, and the commands that only read a config.

The set-up makes every check ``run`` makes before it writes anything, so
``validate`` passes only a config that ``run`` starts. ``run`` and
``replay`` live in ``cli``, which loads the simulator, the filter and the
oracle; this module imports it only for those two commands, so
``validate`` also loads ``testfuncs`` and no other module it does not
call.  Exit codes: 0 ok, 2 bad configuration, 3 model hypothesis
violation, 4 numerical degeneracy, 5 acceptance or replay failure.
"""

import argparse
import sys

import numpy as np

from .config import parse_config_file
from .errors import (ConfigError, DegeneracyError, DivergenceError,
                     ModelViolationError, NumericOverflowError,
                     ReplayMismatchError)
from .families import build_family, list_families
from .model import structured_probes, validate_hypotheses
from .rng import derive_seed


def _cli_command(args):
    """``run`` or ``replay``, from ``cli``, imported for these two alone."""
    from . import cli
    return {"run": cli._cmd_run, "replay": cli._cmd_replay}[args.command](args)


def build_scenario(cfg):
    """The configured scenario and its test functions, which must have
    distinct names and a finite value, gradient and Hessian at the
    hypothesis screen's structured probes; a Kalman gate needs the linear
    reference and the coord:0 moment it is compared with."""
    from .testfuncs import make_test_function   # not for list-families

    scen = build_family(cfg.family, cfg.params)
    funcs = [make_test_function(name, scen.spec.n)
             for name in cfg.function_names()]
    names = [F.name for F in funcs]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"test function {name!r} is given twice in "
                              f"test_functions = {cfg.test_functions}")
    points = structured_probes(scen.spec.n)
    for F in funcs:
        for part in ("value", "grad", "hess"):
            with np.errstate(all="ignore"):
                v = np.asarray(getattr(F, part)(points), float)
            finite = np.isfinite(v.reshape(len(points), -1)).all(axis=1)
            if not finite.all():
                raise ConfigError(f"test function {F.name!r} has a non-finite "
                                  f"{part} at x = {points[np.argmin(finite)]}")
    if cfg.accept_max_kalman_gap is not None and (
            scen.linear is None or "coord:0" not in names):
        raise ConfigError("accept.max_kalman_gap needs a family with a "
                          "linear reference and coord:0 in test_functions")
    return scen, funcs


def _cmd_validate(args):
    cfg = parse_config_file(args.config, args.seed)
    spec = build_scenario(cfg)[0].spec
    report = validate_hypotheses(spec, cfg.hypothesis_budget,
                                 derive_seed(cfg.seed, "hypotheses"))
    for check in report.checks:
        status = "ok  " if check.passed else "FAIL"
        print(f"{status} {check.name}: worst={check.worst:.6g} "
              f"bound={check.bound:.6g}")
        if not check.passed:
            print(f"     witness: {check.to_dict()['witness']}")
    report.raise_if_failed()
    print(f"all {len(report.checks)} hypothesis checks passed")
    return 0


def _cmd_list_families(args):
    for name, doc in list_families():
        print(f"{name}: {doc}")
    return 0


def _worker_count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levyfilter",
        description="Particle filtering for jump diffusions with shared noise")
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by the commands that read a config or run replicas
    setup = argparse.ArgumentParser(add_help=False)
    setup.add_argument("--config", required=True,
                       help="path to a key=value config")
    setup.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--threads", type=_worker_count, default=1,
                      help="replicas run at once: the command itself and "
                      "N - 1 forked processes (above 1 needs os.fork)")

    p_run = sub.add_parser("run", parents=[setup, pool],
                           help="simulate and filter a configured scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(fn=_cli_command)

    p_replay = sub.add_parser("replay", parents=[pool],
                              help="re-run a directory and require identical bytes")
    p_replay.add_argument("--out", required=True, help="directory of a previous run")
    p_replay.set_defaults(fn=_cli_command)

    p_val = sub.add_parser("validate", parents=[setup],
                           help="make run's checks and the hypothesis screen")
    p_val.set_defaults(fn=_cmd_validate)

    p_list = sub.add_parser("list-families", help="show bundled scenario families")
    p_list.set_defaults(fn=_cmd_list_families)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return 3
    except (DegeneracyError, DivergenceError, NumericOverflowError) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 4
    except ReplayMismatchError as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
