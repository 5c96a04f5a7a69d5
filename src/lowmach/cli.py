"""Command-line interface.

Verbs:

* ``run``          -- integrate one configuration, writing snapshots/logs;
* ``table1``       -- stability scan over (epsilon, dx) pairs;
* ``table2``       -- relative-error table against a fine explicit reference;
* ``compare-ice``  -- oscillation comparison of the semi-implicit scheme
  against the predictor/corrector baseline;
* ``sweep``        -- cartesian parameter product of runs, concurrently.

The ``run`` and ``sweep`` flags are ``--config`` (a key=value file) and
the config keys (``--t-final`` sets ``t_final``), whose values
:func:`lowmach.config.build_config` parses and checks as a file's.  The
table verbs' flags are parsed by the same value parsers, so every value
that does not parse is a config error (exit 2) that :func:`main` returns,
and each case of a table is built as a config, so it is checked by the
rules of ``run``.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import _KEY_PARSERS, _parse_float, _parse_int, parse_config_file, parse_floats
from .errors import ConfigError, NumericsError
from . import runner


def _add_run_flags(parser):
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    for key in _KEY_PARSERS:
        parser.add_argument("--" + key.replace("_", "-"), default=None)


def _collect_raw(args) -> dict:
    raw = {}
    if args.config is not None:
        raw.update(parse_config_file(args.config))
    for key in _KEY_PARSERS:
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    return raw


def build_parser():
    parser = argparse.ArgumentParser(prog="lowmach",
                                     description="All-Mach finite-volume solvers for isentropic flow")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    _add_run_flags(p_run)

    p_t1 = sub.add_parser("table1", help="stability scan over (epsilon, dx)")
    p_t1.add_argument("--epsilons", type=str, default="0.8,0.3,0.05")
    p_t1.add_argument("--dxs", type=str, default="0.01,0.005,0.0025,0.00125")
    p_t1.add_argument("--variant", type=str, default="ld")
    p_t1.add_argument("--t-final", default="0.1")
    p_t1.add_argument("--output", type=str, default="table1.csv")

    p_t2 = sub.add_parser("table2", help="convergence/error table")
    p_t2.add_argument("--epsilons", type=str, default="0.8,0.05")
    p_t2.add_argument("--levels", default="5")
    p_t2.add_argument("--variant", type=str, default="ld")
    p_t2.add_argument("--output", type=str, default="table2.csv")

    p_ice = sub.add_parser("compare-ice", help="oscillation comparison vs the ICE baseline")
    p_ice.add_argument("--epsilon", required=True)
    p_ice.add_argument("--dx", default="0.005")
    p_ice.add_argument("--dt", default="5e-5")
    p_ice.add_argument("--t-final", default="0.01")
    p_ice.add_argument("--output-dir", type=str, default="out")

    p_sweep = sub.add_parser("sweep", help="cartesian parameter product of runs")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--vary", action="append", default=[],
                         help="key=v1,v2,... (repeatable)")
    p_sweep.add_argument("--sweep-dir", type=str, default="sweep")

    return parser


def _cmd_run(args) -> int:
    result = runner.run_raw(_collect_raw(args))
    print(result.message)
    return result.status


def _cmd_table1(args) -> int:
    eps = parse_floats("epsilons", args.epsilons)
    dxs = parse_floats("dxs", args.dxs)
    t_final = _parse_float("t_final", args.t_final)
    rows = runner.reproduce_table1(eps, dxs, variant=args.variant,
                                   t_final=t_final, output_path=args.output)
    for r in rows:
        print(f"eps={r['epsilon']:g} dx={r['dx']:g} stable_dt={r['stable_dt']:.6g} "
              f"max_lambda={r['max_lambda']:.3g} courant={r['courant']:.3g}")
    print(f"wrote {args.output}")
    return 0


def _cmd_table2(args) -> int:
    eps = parse_floats("epsilons", args.epsilons)
    levels = _parse_int("levels", args.levels)
    rows = runner.reproduce_table2(eps, refinement_levels=levels,
                                   variant=args.variant, output_path=args.output)
    for r in rows:
        print(f"eps={r['epsilon']:g} dx={r['dx']:g} e_rho={r['e_rho']:.4g} "
              f"ratio_rho={r['ratio_rho']:.3g} e_q={r['e_q']:.4g}")
    print(f"wrote {args.output}")
    return 0


def _cmd_compare_ice(args) -> int:
    result = runner.compare_ice(*(_parse_float(key, getattr(args, key))
                                  for key in ("epsilon", "dx", "dt", "t_final")),
                                output_dir=args.output_dir)
    print(f"TV(rho): ap={result['tv_rho_ap']:.6g} ice={result['tv_rho_ice']:.6g}")
    print(f"TV(q):   ap={result['tv_q_ap']:.6g} ice={result['tv_q_ice']:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    base = _collect_raw(args)
    base.pop("output_dir", None)
    varied = {}
    for spec in args.vary:
        if "=" not in spec:
            raise ConfigError(f"--vary expects key=v1,v2,..., got {spec!r}")
        key, values = spec.split("=", 1)
        varied[key.strip()] = [v.strip() for v in values.split(",") if v.strip()]
    if not varied:
        raise ConfigError("sweep requires at least one --vary")
    results = runner.run_sweep(base, varied, Path(args.sweep_dir))
    worst = 0
    for out_dir, status, message in results:
        print(f"[{status}] {out_dir}: {message}")
        worst = max(worst, status)
    return worst


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "table1": _cmd_table1,
        "table2": _cmd_table2,
        "compare-ice": _cmd_compare_ice,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return runner.STATUS_CONFIG
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return runner.STATUS_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return runner.STATUS_IO


if __name__ == "__main__":
    sys.exit(main())
