"""Command-line entry point: the parser, the exit codes, and the commands
that only read a config: validate and list-families.

``run`` and ``replay`` live in ``cli``, which loads the simulator, the
filter and the oracle; this module imports it only when one of those two
commands is given. So the hypothesis screen starts with ``config``,
``families``, ``model`` and ``rng`` alone, and pays for compiling no
module it does not call.  Exit codes: 0 ok, 2 bad configuration, 3 model
hypothesis violation, 4 numerical degeneracy, 5 acceptance or replay
failure.
"""

import argparse
import sys

from .config import parse_config_file
from .errors import (ConfigError, DegeneracyError, DivergenceError,
                     ModelViolationError, NumericOverflowError,
                     ReplayMismatchError)


def _cmd_run(args):
    from . import cli
    return cli._cmd_run(args)


def _cmd_replay(args):
    from . import cli
    return cli._cmd_replay(args)


def _cmd_validate(args):
    from .families import build_family
    from .model import validate_hypotheses
    from .rng import derive_seed

    cfg = parse_config_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    scen = build_family(cfg.family, cfg.params)
    report = validate_hypotheses(scen.spec, cfg.hypothesis_budget,
                                 derive_seed(cfg.seed, "hypotheses"))
    for check in report.checks:
        status = "ok  " if check.passed else "FAIL"
        print(f"{status} {check.name}: worst={check.worst:.6g} "
              f"bound={check.bound:.6g}")
        if not check.passed and check.witness is not None:
            print(f"     witness: {check.witness}")
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise ModelViolationError(f"hypothesis checks failed: {names}")
    print(f"all {len(report.checks)} hypothesis checks passed")
    return 0


def _cmd_list_families(args):
    from .families import list_families

    for name, doc in list_families():
        print(f"{name}: {doc}")
    return 0


THREADS_HELP = ("worker processes for the replicas (forked; above 1 needs "
                "the fork start method)")


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

    p_run = sub.add_parser("run", help="simulate and filter a configured scenario")
    p_run.add_argument("--config", required=True, help="path to a key=value config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--threads", type=_worker_count, default=1,
                       help=THREADS_HELP)
    p_run.set_defaults(fn=_cmd_run)

    p_replay = sub.add_parser("replay",
                              help="re-run a directory and require identical bytes")
    p_replay.add_argument("--out", required=True, help="directory of a previous run")
    p_replay.add_argument("--threads", type=_worker_count, default=1,
                          help=THREADS_HELP)
    p_replay.set_defaults(fn=_cmd_replay)

    p_val = sub.add_parser("validate", help="check model hypotheses for a config")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--seed", type=int, default=None)
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
