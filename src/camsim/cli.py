"""Command-line front end.

Single runs emit a one-row CSV; `--sweep paper` runs the full
speedup/sensitivity matrix (baseline+CAM pairs) and emits one row per run
plus speedups on the CAM rows. A config file of `key = value` lines can
seed any Config field; command-line flags override it. This is the one
module that opens files: the config file, `--out` and `--trace`.

Exit status: 0 when every run finished correctly, 1 when a run failed
(each failure is reported on stderr; a sweep still writes its CSV, with a
failed run's row blank after its id), 2 for a usage, config or program
error found before any run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields

from .coherence import ProtocolError
from .harness import (
    Config,
    SWEEP_PRESETS,
    SimulationError,
    Simulator,
    SweepRow,
    UsageError,
    config_id_of,
    format_csv,
    run_sweep,
)
from .topology import ConfigError, TOPOLOGY_KINDS
from .workload import WorkloadError, gen_microbenchmark

_BOOLS = {"on": True, "true": True, "1": True, "yes": True,
          "off": False, "false": False, "0": False, "no": False}

# Config key -> "bool", "str" or "int", from the field annotations
# ("int | None" coerces as "int").
_KINDS = {f.name: f.type.split(" | ")[0] for f in fields(Config)}


def parse_config_file(path):
    """Read `key = value` lines; '#' starts a comment; keys may use '-'."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key = value" % (path, lineno))
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key not in _KINDS:
                raise ConfigError("%s:%d: unknown config key %r"
                                  % (path, lineno, key))
            values[key] = _coerce(key, val, path, lineno)
    return values


def _coerce(key, val, path, lineno):
    kind = _KINDS[key]
    if kind == "str":
        return val
    if kind == "bool":
        try:
            return _BOOLS[val.lower()]
        except KeyError:
            raise ConfigError("%s:%d: %s expects on/off" % (path, lineno, key))
    try:
        return int(val)
    except ValueError:
        raise ConfigError("%s:%d: %s expects an integer, got %r"
                          % (path, lineno, key, val))


def build_parser():
    p = argparse.ArgumentParser(
        prog="camsim",
        description="Cycle-driven multiprocessor simulator with "
                    "criticality-aware link arbitration.")
    p.add_argument("--config", metavar="FILE",
                   help="key = value config file; flags override it")
    p.add_argument("--topology", choices=TOPOLOGY_KINDS)
    p.add_argument("--procs", type=int)
    p.add_argument("--counters", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--noncrit-work", type=int, dest="noncrit_work")
    p.add_argument("--bandwidth", type=int)
    p.add_argument("--cam", choices=("on", "off"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="FILE",
                   help="destination of the CSV, or of the program under "
                        "--dump-program (default stdout)")
    p.add_argument("--trace", metavar="FILE",
                   help="write a protocol trace log of a single run")
    p.add_argument("--dump-program", action="store_true",
                   help="write the generated program and exit")
    p.add_argument("--sweep", metavar="PRESET", choices=sorted(SWEEP_PRESETS),
                   help="run a sweep preset instead of a single simulation")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel worker processes for sweeps")
    return p


def make_config(args):
    values = parse_config_file(args.config) if args.config else {}
    for key in ("topology", "procs", "counters", "iters", "noncrit_work",
                "bandwidth", "seed"):
        v = getattr(args, key)
        if v is not None:
            values[key] = v
    if args.cam is not None:
        values["cam"] = args.cam == "on"
    return Config(**values)


def _check_writable(path):
    """Raise OSError unless `path` opens for writing; creates nothing."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _open_or(path, stream=None):
    """`path` opened for writing, else `stream`, which is left open."""
    return open(path, "w") if path else contextlib.nullcontext(stream)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.jobs is not None and args.jobs < 1:
            raise UsageError("--jobs must be >= 1, got %d" % args.jobs)
        if args.sweep and args.trace:
            # its runs would overwrite one another's trace
            raise UsageError("a sweep cannot write a trace: trace a single "
                             "run instead")
        cfg = make_config(args)
        cfg.validate()
        # a bad destination is reported now, not after a long run
        for path in (args.out, args.trace):
            if path:
                _check_writable(path)
    except (ConfigError, TypeError, UsageError) as exc:
        print("camsim: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("camsim: cannot open %r: %s" % (exc.filename, exc.strerror),
              file=sys.stderr)
        return 2

    # a config validate() accepts can still fail to build its program
    # (address map) or to form a sweep (shared id)
    try:
        if args.dump_program:
            prog = gen_microbenchmark(cfg.n_threads(), cfg.counters,
                                      cfg.iters, cfg.noncrit_work,
                                      cfg.block_bytes, cfg.mem_bytes())
            with _open_or(args.out, sys.stdout) as fh:
                prog.dump(fh)
            return 0
        if args.sweep:
            deltas = SWEEP_PRESETS[args.sweep]()
            rows = run_sweep(deltas, base=cfg, parallel=args.jobs)
        else:
            # built before the trace is opened, so a program that cannot be
            # built leaves an existing trace file as it was
            sim = Simulator(cfg)
            with _open_or(args.trace) as trace:
                rows = [SweepRow(config_id_of(cfg), sim.run(trace))]
    except (ConfigError, WorkloadError, UsageError) as exc:
        print("camsim: %s" % exc, file=sys.stderr)
        return 2
    except (SimulationError, ProtocolError) as exc:
        print("camsim: %s" % exc, file=sys.stderr)
        return 1

    with _open_or(args.out, sys.stdout) as fh:
        fh.write(format_csv(rows))
    # the CSV leaves a failed run's cells blank; say why it failed
    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print("%s: %s" % (row.config_id, row.error), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
