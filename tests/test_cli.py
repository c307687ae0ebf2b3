"""Command-line interface: argument parsing, output shapes, exit codes."""

from __future__ import annotations

import json

import pytest

import holosim as hs
from holosim.cli import MAX_STEPS, auto_input, main, parse_grid, parse_steps
from holosim.samples import counter_input, load_sample, palin_input


def test_parse_steps():
    assert parse_steps("37") == 37
    assert parse_steps("2^10") == 1024
    assert parse_steps(" 2^4 ") == 16
    assert parse_steps("10^3") == 1000
    with pytest.raises(ValueError):
        parse_steps("0")
    with pytest.raises(ValueError):
        parse_steps("-4")
    assert parse_steps("2^40") == MAX_STEPS
    # rejected before the power is built, so 2^99999999 returns at once
    for text in ("2^41", "2^1100", "2^99999999", str(MAX_STEPS + 1), "0^-1"):
        with pytest.raises(ValueError):
            parse_steps(text)


def test_simulate_huge_t_is_usage_error(capsys):
    assert main(["simulate", "counter", "--t", "2^1100"]) == 2
    assert "outside" in capsys.readouterr().err


def test_parse_grid():
    assert parse_grid("2^4..2^6") == [16, 32, 64]
    assert parse_grid("1024") == [1024]
    assert parse_grid("8,64, 32") == [8, 64, 32]
    with pytest.raises(ValueError):
        parse_grid("10..30")  # 30 is not 10 times a power of two
    with pytest.raises(ValueError):
        parse_grid("64..8")


def test_run_writer2(capsys):
    assert main(["run", "writer2"]) == 0
    assert capsys.readouterr().out.strip() == "t=2 accept"


def test_run_palin_reject(capsys):
    assert main(["run", "palin", "01"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("reject\n")


def test_run_emit_history(tmp_path, capsys):
    dest = tmp_path / "hist.bin"
    assert main(["run", "writer2", "--emit-history", str(dest)]) == 0
    data = dest.read_bytes()
    m = hs.load_sample("writer2")
    configs = hs.decode_history_exact(data, m)
    assert len(configs) == 3  # times 0..2
    assert configs[-1].state == m.accept


def test_run_emit_history_bytes(tmp_path, capsys):
    """The history is encoded as the walk yields it, into the same bytes
    as encoding the whole list."""
    dest = tmp_path / "hist.bin"
    word = hs.counter_input(5)
    assert main(["run", "counter", word, "--emit-history", str(dest)]) == 0
    rec = hs.run(hs.load_sample("counter"), word, max_steps=10**6)
    assert dest.read_bytes() == hs.encode_history(list(rec.history.configurations()))
    assert f"t={rec.t} accept" in capsys.readouterr().out


def test_unknown_machine_is_usage_error(capsys):
    assert main(["run", "nonesuch"]) == 2
    assert "bundled" in capsys.readouterr().err


def test_malformed_machine_file(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("machine x\ntapes zero\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_wide_machine_file_is_usage_error(tmp_path, capsys):
    wide = tmp_path / "wide.tm"
    text = hs.serialize_machine(hs.load_sample("writer2")).replace("tapes 1", "tapes 20000")
    wide.write_text(
        "\n".join(line for line in text.splitlines() if not line.startswith("delta")),
        encoding="utf-8",
    )
    assert main(["simulate", str(wide), "", "--t", "4"]) == 2
    assert "tapes takes at most" in capsys.readouterr().err


def test_bad_input_word_is_usage_error(capsys):
    assert main(["run", "palin", "abc"]) == 2


def test_simulate_with_verify(capsys):
    code = main(["simulate", "counter", "auto", "--t", "2^8", "--verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "t=256 b=16 T=16" in out
    assert "max_screen=" in out and "max_book=" in out
    assert "root=sha256:" in out
    assert "verified 256 emissions" in out
    assert "(strict)" in out


def test_simulate_verify_records_no_history(capsys, monkeypatch):
    """--verify steps its own oracle in lockstep: it neither runs the
    recording oracle nor builds a history."""

    def refuse(*args, **kwargs):
        raise AssertionError("simulate --verify recorded an oracle history")

    monkeypatch.setattr("holosim.cli.run", refuse)
    monkeypatch.setattr("holosim.machine.RunHistory", refuse)
    for machine, mode in (("counter", "strict"), ("palin", "strict"), ("sweep", "windowed")):
        assert main(["simulate", machine, "auto", "--t", "2^8", "--verify"]) == 0
        assert f"verified 256 emissions against direct simulation ({mode})" in capsys.readouterr().out


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (hs.InternalInvariantError("walk lost its place"), 4, "internal error: "),
        (hs.MergeIncompatible("summaries do not join"), 4, "internal error: "),
        (hs.StepFromHaltError("cannot step from halting state"), 3, "error: "),
    ],
    ids=["invariant", "merge", "catch-all"],
)
def test_engine_errors_map_to_exit_codes(error, code, prefix, capsys, monkeypatch):
    """An internal invariant breach or a failed join exits 4; any other
    toolkit error falls through to the catch-all and exits 3."""

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("holosim.cli.holo_run", fail)
    assert main(["simulate", "counter", "--t", "2^4"]) == code
    assert capsys.readouterr() == ("", f"{prefix}{error}\n")


def test_simulate_sweep_windowed(capsys):
    code = main(["simulate", "sweep", "--t", "2^8", "--verify"])
    assert code == 0
    out = capsys.readouterr().out
    # b = 16 evicts dirty cells, so only the windows can match
    assert "verified 256 emissions" in out
    assert "(windowed)" in out


def test_simulate_auto_t(capsys):
    # four zeros roll over after 57 steps; auto probes that length
    code = main(["simulate", "counter", "0000", "--t", "auto", "--verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "t=57 " in out


def test_simulate_too_long_is_model_violation(capsys):
    assert main(["simulate", "writer2", "--t", "50"]) == 3


def test_simulate_outputs(tmp_path, capsys):
    root_file = tmp_path / "root.bin"
    series_file = tmp_path / "series.csv"
    code = main(
        [
            "simulate", "counter", "auto", "--t", "2^7",
            "--out", str(root_file), "--series", str(series_file),
        ]
    )
    assert code == 0
    m = hs.load_sample("counter")
    root = hs.decode_summary_exact(root_file.read_bytes(), m)
    assert (root.L, root.R) == (1, 128)
    lines = series_file.read_text().strip().splitlines()
    assert lines[0] == "tau,screen,book,total"
    assert len(lines) == 1 + 128
    first = lines[1].split(",")
    assert int(first[1]) + int(first[2]) == int(first[3])


def test_check_blocks_ok(capsys):
    code = main(["check-blocks", "counter", "auto", "--t", "2^6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "block-respecting at b=8" in out
    assert "VIOLATION" not in out


def test_check_blocks_violation(capsys):
    code = main(["check-blocks", "sweep", "--t", "2^5", "--b", "1", "--c-int", "1"])
    assert code == 3
    out = capsys.readouterr().out
    assert "VIOLATION" in out
    assert "exceed the window limit" in out


def test_tree_plain_json(capsys):
    code = main(["tree", "--t", "2^5", "--b", "8"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t"] == 32 and doc["b"] == 8 and doc["T"] == 4
    assert len(doc["nodes"]) == 7


def test_tree_labeled(tmp_path):
    dest = tmp_path / "tree.json"
    code = main(
        [
            "tree", "--t", "2^6", "--b", "8", "--machine", "counter",
            "--input", "auto", "--label", "--out", str(dest),
        ]
    )
    assert code == 0
    doc = json.loads(dest.read_text())
    m = hs.load_sample("counter")
    labeled = [n for n in doc["nodes"] if "summary_hex" in n]
    assert len(labeled) == len(doc["nodes"])
    root_node = next(n for n in doc["nodes"] if n["id"] == 0)
    s = hs.decode_summary_exact(bytes.fromhex(root_node["summary_hex"]), m)
    assert (s.L, s.R) == (1, 64)


def test_tree_label_needs_machine(capsys):
    assert main(["tree", "--t", "2^5", "--label"]) == 2
    assert "--machine" in capsys.readouterr().err


def test_replay_at(capsys):
    code = main(["replay-at", "counter", "auto", "--t", "2^6", "--tau", "40", "--b", "8"])
    assert code == 0
    out = capsys.readouterr().out
    leaf, offset = hs.time_to_leaf(40, 8, 64)
    assert f"tau=40 leaf={leaf} offset={offset}" in out
    # reconstructed configuration agrees with the direct interpreter
    m = hs.load_sample("counter")
    rec = hs.run(m, auto_input(m, 64), max_steps=64)
    assert rec.history[40].state in out


def test_witness_stdout(capsys):
    code = main(["witness", "palin", "--kind", "history"])
    assert code == 0
    out = capsys.readouterr().out
    assert "kind=history bytes=" in out
    hex_line = out.strip().splitlines()[-1]
    kind, m = hs.parse_witness(bytes.fromhex(hex_line))
    assert kind == hs.KIND_HISTORY
    assert m.name == "palin"


def test_witness_out_file(tmp_path, capsys):
    dest = tmp_path / "w.bin"
    code = main(["witness", "counter", "--out", str(dest)])
    assert code == 0
    kind, m = hs.parse_witness(dest.read_bytes())
    assert kind == hs.KIND_POINTWISE and m.name == "counter"


def test_scaling_csv_and_svg(tmp_path, capsys):
    csv_file = tmp_path / "s.csv"
    svg_file = tmp_path / "s.svg"
    code = main(
        [
            "scaling", "counter", "auto", "--grid", "2^8..2^10",
            "--csv", str(csv_file), "--svg", str(svg_file),
        ]
    )
    assert code == 0
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == hs.CSV_HEADER
    assert len(lines) == 4
    assert svg_file.read_text().startswith("<svg")
    assert "exponent=" in capsys.readouterr().out


def test_scaling_palin_auto_sizes_input_per_point(capsys):
    """auto sizes palin's word for each grid point, as criterion 3 does;
    one word sized for the largest t overfills the window at small t."""
    code = main(["scaling", "palin", "auto", "--grid", "2^10..2^13"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    grid = [1 << e for e in range(10, 14)]
    report = hs.area_law_study(load_sample("palin"), palin_input, grid)
    assert len(report.rows) == 4 and not report.failures
    csv_text = hs.report_to_csv(report)
    assert captured.out == csv_text + (
        f"exponent={report.exponent:.4f} residual={report.residual:.4f} points=4\n"
    )


def test_scaling_writer2_fits_nothing(capsys):
    """A machine that halts before every grid point yields one row at
    its true length and no exponent line."""
    code = main(["scaling", "writer2", "--grid", "2^10..2^12"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines == [hs.CSV_HEADER, "writer2,2,2,1,1,2,10,27,37,,"]
    assert captured.err == ""


def test_halt_before_t_is_a_model_error(capsys):
    """counter on 0000 halts after 57 steps: asking for 100 exits 3 and
    names the true length, before any streaming or labelling."""
    want = "error: machine halts after 57 steps, not 100\n"
    assert main(["simulate", "counter", "0000", "--t", "100", "--verify"]) == 3
    assert capsys.readouterr() == ("", want)
    argv = ["tree", "--t", "100", "--label", "--machine", "counter", "--input", "0000"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", want)
    assert main(["check-blocks", "counter", "0000", "--t", "100"]) == 3
    assert capsys.readouterr() == ("", want)


def test_scaling_names_the_grid_point_of_a_halt_at_start(tmp_path, capsys):
    """A machine that starts in its accept state halts before step 1 at
    every grid point: each failure is kept under its own grid point, in
    the report and on stderr, and no row is written."""
    path = tmp_path / "halted.tm"
    path.write_text(
        "machine halted\ntapes 1\nblank _\ninput_alphabet 1\nwork_alphabet 1 _\n"
        "start acc\naccept acc\nreject rej\n"
    )
    report = hs.area_law_study(hs.parse_machine(path.read_text()), lambda t: "", [16, 64])
    assert report.rows == ()
    assert [t for t, _ in report.failures] == [16, 64]
    for t, msg in report.failures:
        assert msg == (
            f"RunEndedEarly: machine halted after 0 steps but {t} were requested; rerun with t=0"
        )
    assert main(["scaling", str(path), "", "--grid", "16,64"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"t={t}: {msg}" for t, msg in report.failures] + [
        "error: no grid point completed"
    ]
