"""Command-line interface: flags, config files, CSV output."""

import pytest

from camsim.cli import main, parse_config_file
from camsim.topology import ConfigError


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


def test_out_file(tmp_path):
    dest = tmp_path / "run.csv"
    rc = main(["--procs", "4", "--counters", "4", "--iters", "1",
               "--noncrit-work", "2", "--out", str(dest)])
    assert rc == 0
    assert dest.read_text().startswith("config_id,")


def test_sweep_with_trace_reported(tmp_path, capsys):
    trace = tmp_path / "trace.log"
    rc = main(["--sweep", "paper", "--trace", str(trace)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("camsim: a sweep cannot write")
    assert not trace.exists()


def test_program_too_large_reported(capsys):
    args = ["--procs", "16", "--iters", "100", "--noncrit-work", "10000000"]
    for extra in ([], ["--dump-program"]):
        rc = main(args + extra)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("camsim: address map needs")
        assert captured.out == ""


def no_run(*args, **kwargs):
    raise AssertionError("a simulation ran")


def test_unwritable_out_reported_before_running(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr("camsim.cli.run_simulation", no_run)
    dest = tmp_path / "missing-dir" / "run.csv"
    rc = main(["--procs", "4", "--counters", "4", "--out", str(dest)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "camsim: cannot open %r: No such file" % str(dest))


def test_unwritable_trace_reported_before_running(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setattr("camsim.cli.run_simulation", no_run)
    rc = main(["--procs", "4", "--counters", "4", "--trace", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "camsim: cannot open %r: Is a directory" % str(tmp_path))


def test_writable_destinations_are_not_created_by_the_check(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr("camsim.cli.run_simulation", no_run)
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
