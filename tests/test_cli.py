"""Command-line interface: flags, config files, CSV output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from camsim.cli import main, parse_config_file
from camsim.harness import SWEEP_PRESETS
from camsim.topology import ConfigError
from test_harness import serial_pool


def test_single_run_csv_to_stdout(capsys):
    rc = main(["--topology", "crossbar", "--procs", "4", "--counters", "4",
               "--iters", "1", "--noncrit-work", "2", "--cam", "on"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("config_id,topology,")
    assert len(lines) == 2
    assert "crossbar.4p.c4.bw125.cam" in lines[1]


def test_dump_program(capsys):
    rc = main(["--procs", "2", "--counters", "2", "--iters", "1",
               "--noncrit-work", "1", "--dump-program"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "T0 LOCK" in out
    assert "T1 UNLOCK" in out


def test_dump_program_to_out_file(tmp_path, capsys):
    args = ["--procs", "2", "--counters", "2", "--iters", "1",
            "--noncrit-work", "1", "--dump-program"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    dest = tmp_path / "program.txt"
    assert main(args + ["--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text() == printed


def test_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# a comment\n"
        "topology = torus2d\n"
        "procs = 4\n"
        "counters = 4\n"
        "iters = 1\n"
        "noncrit-work = 2\n"
        "cam = on\n")
    values = parse_config_file(str(cfgfile))
    assert values["topology"] == "torus2d"
    assert values["cam"] is True
    # CLI overrides the file
    rc = main(["--config", str(cfgfile), "--topology", "crossbar"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crossbar.4p" in out


def test_config_file_rejects_unknown_key(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("no_such_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(f))


def test_bad_flags_reported(capsys):
    rc = main(["--topology", "hypercube", "--procs", "12"])
    assert rc == 2
    assert "camsim:" in capsys.readouterr().err


def test_every_config_key_is_a_flag(tmp_path, capsys):
    # lat_mem was once a config-file key only; flag and file read alike
    args = ["--procs", "4", "--counters", "4", "--iters", "1",
            "--noncrit-work", "2"]
    rows = []
    for extra in (["--lat-mem", "3"], ["--lat-mem", "300"]):
        assert main(args + extra) == 0
        rows.append(capsys.readouterr().out)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("lat_mem = 3\n")
    assert main(args + ["--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out == rows[0] != rows[1]


@pytest.mark.parametrize("flag,value,expects", [
    ("--cam", "maybe", "on/off"), ("--procs", "x", "an integer")],
    ids=("cam", "procs"))
def test_bad_flag_value_names_the_flag(flag, value, expects, capsys):
    assert main([flag, value]) == 2
    assert capsys.readouterr().err == "camsim: %s expects %s, got %r\n" % (
        flag, expects, value)


def test_bad_config_file_value_names_its_line(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("procs = 4\ncam = maybe\n")
    with pytest.raises(ConfigError,
                       match="bad.cfg:2: cam expects on/off, got 'maybe'"):
        parse_config_file(str(cfgfile))


def test_out_file(tmp_path):
    dest = tmp_path / "run.csv"
    rc = main(["--procs", "4", "--counters", "4", "--iters", "1",
               "--noncrit-work", "2", "--out", str(dest)])
    assert rc == 0
    assert dest.read_text().startswith("config_id,")


def no_run(*args, **kwargs):
    raise AssertionError("a simulation ran")


def test_sweep_with_trace_reported(tmp_path, capsys):
    trace = tmp_path / "trace.log"
    rc = main(["--sweep", "paper", "--trace", str(trace)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("camsim: a sweep cannot write")
    assert not trace.exists()


@pytest.mark.parametrize("args,named", [
    (["--seed", "3"], "--seed"),
    (["--cam", "on"], "--cam"),
    (["--topology", "hypercube", "--procs", "6"], "--topology"),
])
def test_sweep_refuses_flags_it_sets(args, named, capsys, monkeypatch):
    # every run of the paper sweep sets these keys itself: the flag would
    # be dropped, so it is refused before any run
    monkeypatch.setattr("camsim.cli.run_sweep", no_run)
    assert main(args + ["--sweep", "paper"]) == 2
    assert capsys.readouterr().err == (
        "camsim: %s is set by the paper sweep\n" % named)


def test_sweep_refuses_config_file_keys_it_sets(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr("camsim.cli.run_sweep", no_run)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("jitter = 2\nbandwidth = 40\n")
    assert main(["--config", str(cfgfile), "--sweep", "paper"]) == 2
    assert capsys.readouterr().err == (
        "camsim: %s: bandwidth is set by the paper sweep\n" % cfgfile)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_reported(jobs, capsys, monkeypatch):
    monkeypatch.setattr("camsim.cli.run_sweep", no_run)
    assert main(["--sweep", "paper", "--jobs", jobs]) == 2
    assert capsys.readouterr().err == (
        "camsim: --jobs must be >= 1, got %s\n" % jobs)


TRACED = ["--topology", "torus2d", "--procs", "4", "--counters", "3",
          "--iters", "2", "--noncrit-work", "5", "--cam", "on"]


def test_failed_traced_run_leaves_its_partial_trace(tmp_path, monkeypatch,
                                                    capsys):
    full, partial = tmp_path / "full.log", tmp_path / "partial.log"
    assert main(TRACED + ["--trace", str(full), "--out",
                          str(tmp_path / "run.csv")]) == 0
    # the first SWMR check, when a transaction closes, finds a violation
    monkeypatch.setattr("camsim.harness.check_swmr",
                        lambda caches, addr, owner: ["planted"])
    assert main(TRACED + ["--trace", str(partial)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("camsim: SWMR violation at cycle ")
    assert err.endswith(": planted\n") and err.count("\n") == 1
    # the trace ends with the transition whose check failed
    text = partial.read_text()
    assert text.endswith("\n") and text.split()[-5] == "unblock"
    assert full.read_text().startswith(text) and len(text) < len(
        full.read_text())


def test_failed_sweep_runs_are_named_on_stderr(monkeypatch, capsys):
    asked = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        serial_pool(asked))
    monkeypatch.setitem(SWEEP_PRESETS, "pair",
                        lambda: [dict(procs=2), dict(procs=4)])
    args = ["--topology", "crossbar", "--counters", "2", "--iters", "1",
            "--noncrit-work", "2", "--sweep", "pair", "--jobs", "2"]
    assert main(args) == 0
    healthy = capsys.readouterr()
    assert asked == [2] and healthy.err == ""
    # every 4-processor run fails its first SWMR check
    monkeypatch.setattr("camsim.harness.check_swmr",
                        lambda caches, addr, owner: ["planted"] * (len(caches) == 4))
    assert main(args) == 1
    out, err = capsys.readouterr()
    rows = out.splitlines()
    # the CSV is the one a sweep writes, a failed run's row blank after its id
    assert rows[:3] == healthy.out.splitlines()[:3]
    assert rows[3:] == ["crossbar.4p.c2.bw125.base" + "," * 14,
                        "crossbar.4p.c2.bw125.cam" + "," * 14]
    lines = err.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "crossbar.4p.c2.bw125.base", "crossbar.4p.c2.bw125.cam"]
    assert all(line.split(": ", 1)[1].startswith(
        "SimulationError: SWMR violation at cycle ")
        and line.endswith(": planted") for line in lines)


def test_program_too_large_leaves_an_existing_trace(tmp_path, capsys):
    trace = tmp_path / "trace.log"
    trace.write_text("an earlier trace\n")
    rc = main(["--procs", "16", "--iters", "100", "--noncrit-work",
               "10000000", "--trace", str(trace)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("camsim: address map needs")
    assert trace.read_text() == "an earlier trace\n"


def test_program_too_large_reported(capsys):
    args = ["--procs", "16", "--iters", "100", "--noncrit-work", "10000000"]
    for extra in ([], ["--dump-program"]):
        rc = main(args + extra)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("camsim: address map needs")
        assert captured.out == ""


def test_unwritable_out_reported_before_running(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr("camsim.cli.Simulator", no_run)
    dest = tmp_path / "missing-dir" / "run.csv"
    rc = main(["--procs", "4", "--counters", "4", "--out", str(dest)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "camsim: cannot open %r: No such file" % str(dest))


def test_unwritable_trace_reported_before_running(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr("camsim.cli.Simulator", no_run)
    rc = main(["--procs", "4", "--counters", "4", "--trace", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "camsim: cannot open %r: Is a directory" % str(tmp_path))


def test_writable_destinations_are_not_created_by_the_check(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr("camsim.cli.Simulator", no_run)
    out, trace = tmp_path / "run.csv", tmp_path / "trace.log"
    with pytest.raises(AssertionError, match="a simulation ran"):
        main(["--procs", "4", "--counters", "4", "--out", str(out),
              "--trace", str(trace)])
    assert not out.exists() and not trace.exists()


def test_missing_config_file_reported(tmp_path, capsys):
    cfgfile = tmp_path / "missing.cfg"
    rc = main(["--config", str(cfgfile)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "camsim: cannot open %r: No such file" % str(cfgfile))


def test_module_entry_point_exit_status(tmp_path):
    # `python -m camsim.cli` exits with what `main` returns: 0 for a good
    # run, 1 for a failed one (a planted SWMR violation, run through the
    # same `__main__` path), 2 for a usage error
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = ["--procs", "2", "--counters", "1", "--iters", "1",
           "--noncrit-work", "1"]
    planted = ("import runpy, camsim.harness as h; "
               "h.check_swmr = lambda caches, addr, owner: ['planted']; "
               "runpy.run_module('camsim.cli', run_name='__main__')")
    cases = [(["-m", "camsim.cli"] + run, 0, "config_id,", ""),
             (["-c", planted] + run, 1, "", "camsim: SWMR violation"),
             (["-m", "camsim.cli", "--procs", "x"], 2, "",
              "camsim: --procs expects an integer")]
    for argv, status, out, err in cases:
        proc = subprocess.run([sys.executable] + argv, env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == status, proc.stderr
        assert proc.stdout.startswith(out) and bool(proc.stdout) == bool(out)
        assert proc.stderr.startswith(err) and bool(proc.stderr) == bool(err)
