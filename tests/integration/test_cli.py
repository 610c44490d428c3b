"""CLI: every subcommand exercised on tiny devices."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_devices_lists_profiles(capsys):
    code, out = run_cli(capsys, "devices")
    assert code == 0
    assert "memoright" in out
    assert "kingston_sd" in out
    assert "$943" in out


def test_run_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "run",
        "--device", "mtron",
        "--capacity", "8M",
        "--mode", "write",
        "--location", "random",
        "--count", "64",
    )
    assert code == 0
    assert "RW on mtron" in out
    assert "mean=" in out


def test_run_with_plot(capsys):
    code, out = run_cli(
        capsys,
        "run",
        "--device", "mtron",
        "--capacity", "8M",
        "--count", "32",
        "--plot",
        "--skip-state",
    )
    assert code == 0
    assert "IO number" in out


def test_microbench_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "microbench",
        "granularity",
        "--device", "kingston_dti",
        "--capacity", "8M",
        "--count", "16",
        "--pattern", "SW",
    )
    assert code == 0
    assert "granularity/SW" in out
    assert "IOSize" in out


def test_phases_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "phases",
        "--device", "mtron",
        "--capacity", "16M",
        "--count", "384",
    )
    assert code == 0
    assert "startup=" in out
    assert "bounds:" in out


def test_pause_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "pause",
        "--device", "kingston_dti",
        "--capacity", "8M",
        "--reads-after", "128",
    )
    assert code == 0
    assert "recommended pause" in out


def test_pause_plot_at_default_reads_after(capsys, monkeypatch):
    """``pause --plot`` at the default ``--reads-after 4096`` plots the
    three probe phases one after another (Figure 5)."""
    import numpy as np

    import repro.cli as cli

    plotted = []
    real_plot = cli.plot_trace

    def spy(values, **kwargs):
        plotted.append(np.asarray(values))
        return real_plot(values, **kwargs)

    monkeypatch.setattr(cli, "plot_trace", spy)
    code, out = run_cli(
        capsys, "pause", "--device", "kingston_dti", "--capacity", "8M", "--plot"
    )
    assert code == 0
    assert "SR / RW / SR probe (Figure 5)" in out
    (values,) = plotted
    # 512 reads before + 512 writes + 4096 reads after, not their sum
    assert values.shape == (512 + 512 + 4096,)
    assert (values > 0).all()
    assert out.rstrip().endswith(str(512 + 512 + 4096 - 1))


def test_hints_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "hints",
        "--device", "mtron",
        "--capacity", "16M",
    )
    assert code == 0
    assert "HOLDS" in out
    assert "Flash devices do incur latency" in out


@pytest.mark.slow
def test_table3_subcommand(capsys):
    code, out = run_cli(capsys, "table3", "kingston_dti", "--classify")
    assert code == 0
    assert "kingston_dti" in out
    assert "(paper: Kingston DTI)" in out
    assert "low-end" in out


def test_autotune_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "autotune",
        "--device", "mtron",
        "--capacity", "16M",
        "--ci", "0.2",
        "--max-ios", "1024",
    )
    assert code == 0
    assert "converged" in out or "budget hit" in out
    assert "IOIgnore=" in out


def test_energy_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "energy",
        "--device", "kingston_dti",
        "--capacity", "8M",
        "--count", "48",
    )
    assert code == 0
    assert "uJ per IO" in out
    assert "RW" in out


def test_lifetime_subcommand(capsys):
    code, out = run_cli(
        capsys,
        "lifetime",
        "--device", "mtron",
        "--capacity", "16M",
        "--count", "192",
        "--pattern", "RW",
    )
    assert code == 0
    assert "wear now:" in out
    assert "projection under sustained RW" in out


def test_campaign_and_report_subcommands(capsys, tmp_path):
    code, out = run_cli(
        capsys,
        "campaign",
        "order",
        "--device", "kingston_dti",
        "--capacity", "8M",
        "--count", "16",
        "--label", "t1",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "campaign archived" in out
    archive = tmp_path / "t1.json"
    assert archive.exists()

    code, out = run_cli(capsys, "report", str(archive))
    assert code == 0
    assert "# uFLIP campaign: t1" in out
    assert "## order/SW" in out

    # compare a campaign against itself: no regressions
    out_md = tmp_path / "report.md"
    code, out = run_cli(
        capsys, "report", str(archive), "--compare", str(archive),
        "--out", str(out_md),
    )
    assert code == 0
    assert out_md.exists()
    assert "no experiment regressed" in out_md.read_text()


@pytest.mark.parametrize("target", ["directory", "missing.json"])
def test_report_on_a_bad_path_is_a_one_line_error(capsys, tmp_path, target):
    path = tmp_path / target
    if target == "directory":
        path.mkdir()
    code = main(["report", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("uflip: error: ")
    assert str(path) in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_replay_subcommand(capsys, tmp_path):
    # capture a small trace first
    from repro.core import Engine, baselines
    from repro.flashsim import build_device
    from repro.units import KIB, MIB

    source = build_device("mtron", logical_bytes=8 * MIB)
    spec = baselines(
        io_size=32 * KIB, io_count=24,
        random_target_size=source.capacity,
    )["RW"]
    run = Engine(source).run(spec)
    trace_path = tmp_path / "trace.csv"
    run.trace.to_csv(trace_path)

    code, out = run_cli(
        capsys,
        "replay",
        str(trace_path),
        "--device", "memoright",
        "--capacity", "8M",
    )
    assert code == 0
    assert "replayed 24 IOs on memoright" in out
    assert "speedup" in out


@pytest.mark.parametrize(
    "text",
    [
        "lba,size\n0,4096\n",  # not an IOTrace header
        "index,mode,lba,size,submitted_at,started_at,completed_at,"
        "response_usec,page_reads,page_programs,copy_reads,copy_programs,"
        "block_erases,notes\n0,write,oops,4096,0,0,1,1,0,1,0,0,0,\n",
    ],
    ids=["header", "row"],
)
def test_replay_on_a_malformed_csv_is_a_one_line_error(capsys, tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    code = main(["replay", str(path), "--device", "memoright", "--capacity", "8M"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("uflip: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
