"""Command line interface.

Subcommands: simulate, energy, force, kernel-table, check, render.
Exit codes: 0 ok, 1 usage, 2 config or unwritable output, 3 numerical
failure, 4 blow-up termination (simulate with --fail-on-blowup).
"""

import argparse
import os
import sys

import numpy as np

from . import checks, netio
from .config import load_config
from .energy_force import energy_line, pk_force
from .errors import ConfigError, DDDError
from .evolution import run
from .kernels import SphericalQuadrature

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BLOWUP = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    p = _Parser(prog="dddflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evolve a network and write diagnostics")
    sim.add_argument("--input", required=True, help="network JSON")
    sim.add_argument("--config", required=True, help="config JSON")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--svg", action="store_true", help="write snapshot SVGs")
    sim.add_argument("--fail-on-blowup", action="store_true")

    for name in ("energy", "force"):
        c = sub.add_parser(name, help=f"compute {name} of a network")
        c.add_argument("--input", required=True)
        c.add_argument("--config", required=True)
        c.add_argument("--out", default="-", help="output CSV ('-' for stdout)")

    kt = sub.add_parser("kernel-table", help="dump K and grad K on a grid")
    kt.add_argument("--config", required=True)
    kt.add_argument("--lo", default="-1,-1,-1", help="grid corner x,y,z")
    kt.add_argument("--hi", default="1,1,1", help="grid corner x,y,z")
    kt.add_argument("--n", default="5,5,5", help="points per axis nx,ny,nz")
    kt.add_argument("--grad", action="store_true", help="include kernel gradient columns")
    kt.add_argument("--out", default="-")

    ck = sub.add_parser("check", help="run the acceptance/invariant suites")
    ck.add_argument("--only", nargs="+", default=None, choices=checks.CHECK_NAMES)
    ck.add_argument("--sphere-polar", type=int, default=None)
    ck.add_argument("--sphere-azimuthal", type=int, default=None)
    ck.add_argument("--nphi-scale", type=float, default=None)

    rd = sub.add_parser("render", help="write an SVG snapshot of a network")
    rd.add_argument("--input", required=True)
    rd.add_argument("--plane", default="xy", choices=["xy", "xz", "yz"])
    rd.add_argument("--out", required=True)
    return p


def _write(text, dest):
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)


def _cmd_simulate(args):
    cfg = load_config(args.config)
    net = netio.load_network(args.input)
    ev = cfg.kernel_evaluator()
    model = cfg.mobility_model()
    rule = cfg.line_rule()
    policy = cfg.step_policy()
    os.makedirs(args.out_dir, exist_ok=True)

    def snapshot(istep, state):
        if state.network.is_empty():
            return
        base = os.path.join(args.out_dir, f"snapshot_{istep:06d}")
        netio.save_network(state.network, base + ".json")
        if args.svg:
            netio.render_svg(state.network, "xy", base + ".svg")

    state = run(net, ev, model, rule, policy, snapshot_cb=snapshot)
    with open(os.path.join(args.out_dir, "diagnostics.csv"), "w") as fh:
        fh.write(netio.diagnostics_csv(state.diagnostics))
    netio.write_events(state.events, os.path.join(args.out_dir, "events.jsonl"))
    if not state.network.is_empty():
        netio.save_network(state.network, os.path.join(args.out_dir, "final.json"))
    print(f"terminated: {state.termination} at t={state.time:.6g} "
          f"({len(state.diagnostics)} steps)")
    if state.termination == "blowup" and args.fail_on_blowup:
        return EXIT_BLOWUP
    return EXIT_OK


def _cmd_energy(args):
    cfg = load_config(args.config)
    net = netio.load_network(args.input)
    bd = energy_line(net, cfg.kernel_evaluator(), cfg.line_rule())
    _write(netio.energy_csv(bd), args.out)
    return EXIT_OK


def _cmd_force(args):
    cfg = load_config(args.config)
    net = netio.load_network(args.input)
    field = pk_force(net, cfg.kernel_evaluator(), cfg.line_rule())
    _write(netio.forces_csv(net, field), args.out)
    return EXIT_OK


def _cmd_kernel_table(args):
    cfg = load_config(args.config)
    try:
        lo = [float(v) for v in args.lo.split(",")]
        hi = [float(v) for v in args.hi.split(",")]
        npts = [int(v) for v in args.n.split(",")]
        if not (len(lo) == len(hi) == len(npts) == 3) or min(npts) < 1:
            raise ValueError
        if not np.isfinite(lo + hi).all():
            raise ValueError
    except ValueError:
        raise _UsageError("--lo/--hi need 3 finite floats and --n needs 3 ints >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        axes = [np.linspace(lo[i], hi[i], npts[i]) for i in range(3)]
    if not all(np.isfinite(ax).all() for ax in axes):
        raise _UsageError("--lo/--hi span a grid that overflows")
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    _write(netio.kernel_table_csv(cfg.kernel_evaluator(), grid, include_grad=args.grad), args.out)
    return EXIT_OK


def _cmd_check(args):
    overrides = {}
    # the suites build their rules from these orders: reject bad ones first
    for key, order in (("sphere_polar", "n_polar"), ("sphere_azimuthal", "n_azimuthal")):
        value = getattr(args, key)
        if value is not None:
            try:
                SphericalQuadrature.product_rule(**{order: value})
            except ValueError as exc:
                raise _UsageError(f"--{key.replace('_', '-')}: {exc}") from exc
            overrides[key] = value
    if args.nphi_scale is not None:
        overrides["nphi_scale"] = args.nphi_scale
    results = checks.run_checks(names=args.only, overrides=overrides or None)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"{r.name:<{width}}  {status}  [{r.seconds:7.2f}s]  {r.detail}")
    print(f"{'overall':<{width}}  {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def _cmd_render(args):
    net = netio.load_network(args.input)
    netio.render_svg(net, args.plane, args.out)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "energy": _cmd_energy,
    "force": _cmd_force,
    "kernel-table": _cmd_kernel_table,
    "check": _cmd_check,
    "render": _cmd_render,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out = getattr(args, "out", "-")  # checked before any computation
        if out != "-" and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise FileNotFoundError(f"{out}: no directory to write it in")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # inputs are read as ConfigError: this is an output
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DDDError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
