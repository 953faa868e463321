import json
import math

import numpy as np
import pytest

from mzi_duality.cli import (
    SWEEP_HEADER,
    SweepSpec,
    _fmt,
    figure_tables,
    main,
    parse_angle,
    run_sweep,
)
from mzi_duality.duality import (
    complementarity_residual,
    distinguishability_closed,
    distinguishability_trace_norm,
    path_weights,
    visibility_closed,
    visibility_scan,
)
from mzi_duality.errors import DualityError, InvalidInputError
from mzi_duality.interferometer import BeamSplitterAngle, BlochState


# --- angle parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1.5", 1.5),
        ("-0.25", -0.25),
        ("pi", math.pi),
        ("PI", math.pi),
        ("pi/2", math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("-pi/2", -math.pi / 2),
        ("2pi", 2 * math.pi),
        ("0.5pi", math.pi / 2),
        ("+pi", math.pi),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("text", ["", "pie", "pi/", "pi/0x2", "two pi", "pi/0", "3pi/.0"])
def test_parse_angle_rejects_garbage(text):
    with pytest.raises(InvalidInputError):
        parse_angle(text)


def test_zero_angle_divisor_is_a_usage_error(capsys):
    # argparse turns the InvalidInputError (a ValueError) into exit code 2.
    with pytest.raises(SystemExit) as info:
        main(["report", "--beta", "pi/0"])
    assert info.value.code == 2
    assert "invalid parse_angle value: 'pi/0'" in capsys.readouterr().err


# --- report -----------------------------------------------------------------------


def test_report_known_visibility(capsys):
    code = main(
        ["report", "--sx", "0", "--sy", "0.6", "--sz", "0",
         "--A", "0.3333333333", "--beta", "1.5707963268"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["visibility"] == pytest.approx(0.2, abs=1e-9)
    assert set(payload) == {
        "visibility", "distinguishability", "v2_plus_d2", "residual", "omega_a", "omega_b",
    }


def test_report_trivial_splitter(capsys):
    assert main(["report", "--beta", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["visibility"] == 0.0
    assert payload["distinguishability"] == 1.0


def test_report_pure_state_saturates(capsys):
    assert main(["report", "--sx", "0.6", "--sy", "0.8", "--A", "0.4", "--beta", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["v2_plus_d2"] == pytest.approx(1.0, abs=1e-12)


def test_report_degenerate_point_exits_2(capsys):
    code = main(["report", "--sx", "-1", "--beta", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_report_accepts_pi_notation(capsys):
    assert main(["report", "--beta", "pi/2", "--A", "0.5"]) == 0
    json.loads(capsys.readouterr().out)


# --- sweep ------------------------------------------------------------------------


def small_sx_spec(**overrides):
    base = dict(
        swept="s_x", lo=-0.6, hi=0.6, steps=13, lam=0.36,
        a_overlap=1 / 3, beta=math.pi / 2,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_sweep_spec_validation():
    with pytest.raises(InvalidInputError):
        small_sx_spec(steps=1)
    with pytest.raises(InvalidInputError):
        small_sx_spec(lo=0.5, hi=0.2)
    with pytest.raises(InvalidInputError):
        small_sx_spec(hi=0.7)  # outside sqrt(lam)
    with pytest.raises(InvalidInputError):
        small_sx_spec(beta=None)
    with pytest.raises(InvalidInputError):
        SweepSpec(swept="beta", lo=0, hi=math.pi, steps=5, lam=0.2, a_overlap=0.5, s_x=0.6)
    with pytest.raises(InvalidInputError):
        SweepSpec(swept="phi", lo=0, hi=1, steps=5, lam=0.2, a_overlap=0.5)
    with pytest.raises(InvalidInputError):
        small_sx_spec(gamma=math.nan)
    with pytest.raises(InvalidInputError):
        small_sx_spec(yz_angle=math.inf)
    with pytest.raises(InvalidInputError):
        SweepSpec(swept="beta", lo=0, hi=math.pi, steps=5, lam=0.2, a_overlap=0.5, s_x=math.nan)


def test_sweep_rows_satisfy_the_complementarity_identity():
    lines = run_sweep(small_sx_spec())
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 14
    for line in lines[1:]:
        fields = [float(x) for x in line.split(",")]
        _, v_closed, v_scan, d_closed, d_trace, residual, omega_a, omega_b = fields
        assert abs(v_closed**2 + d_closed**2 + residual - 1.0) <= 1e-10
        assert abs(v_scan - v_closed) <= 1e-8
        assert abs(d_trace - d_closed) <= 1e-9
        assert abs(omega_a + omega_b - 1.0) <= 1e-12


def test_sweep_finds_the_reference_peak():
    # 241 steps over [-3/5, 3/5] at the symmetric splitter: peak 0.2 at s_x = 0
    lines = run_sweep(small_sx_spec(steps=241))
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    best = max(rows, key=lambda row: row[1])
    assert best[1] == pytest.approx(0.2, abs=1e-9)
    assert abs(best[0]) <= 1e-12


def test_beta_sweep_finds_the_reference_valley():
    # A = 4/5 with s_x = 0.5: the minimum-D row sits at beta = 2pi/3 with D = 0.6
    spec = SweepSpec(
        swept="beta", lo=0.0, hi=math.pi, steps=201, lam=0.25,
        a_overlap=0.8, s_x=0.5,
    )
    rows = [[float(x) for x in line.split(",")] for line in run_sweep(spec)[1:]]
    best = min(rows, key=lambda row: row[3])
    step = math.pi / 200
    assert abs(best[0] - 2 * math.pi / 3) <= step
    assert best[3] == pytest.approx(0.6, abs=1e-4)


def test_beta_sweep_endpoints_are_exact():
    spec = SweepSpec(
        swept="beta", lo=0.0, hi=math.pi, steps=9, lam=0.36,
        a_overlap=1 / 3, s_x=0.5,
    )
    lines = run_sweep(spec)
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first[1] == 0.0 and first[3] == 1.0
    assert last[1] == 0.0 and last[3] == 1.0


def test_sweep_emits_empty_fields_on_degenerate_points(capsys):
    # s_x = 1 is a valid pure input, but beta = pi darkens the monitored port
    spec = SweepSpec(
        swept="beta", lo=0.0, hi=math.pi, steps=5, lam=1.0,
        a_overlap=0.5, s_x=1.0,
    )
    lines = run_sweep(spec)
    assert lines[-1].endswith(",,,,,,,")
    assert "degenerate" in capsys.readouterr().err
    complete = [line for line in lines[1:] if not line.endswith(",,,,,,,")]
    assert len(complete) == 4


def scalar_sweep(spec):
    """The sweep row by row through the public scalar API: (param, row or
    None) per row, and the warnings, in the order the calls raise."""
    rows, warnings = [], []
    for value in spec.grid().tolist():
        s_x, beta = (value, spec.beta) if spec.swept == "s_x" else (spec.s_x, value)
        try:
            r = math.sqrt(max(spec.lam - s_x * s_x, 0.0))
            state = BlochState(s_x, r * math.sin(spec.yz_angle), r * math.cos(spec.yz_angle))
            angle = BeamSplitterAngle(beta)
            weights = path_weights(s_x, angle)
            row = [
                visibility_closed(state, spec.a_overlap, angle),
                visibility_scan(state, spec.detector, angle),
                distinguishability_closed(s_x, angle, spec.a_overlap),
                distinguishability_trace_norm(spec.detector, weights),
                complementarity_residual(state, spec.a_overlap, angle),
                weights.omega_a,
                weights.omega_b,
            ]
        except DualityError as exc:
            warnings.append(f"warning: {spec.swept}={_fmt(value)} is degenerate ({exc})")
            row = None
        rows.append((value, row))
    return rows, warnings


@pytest.mark.parametrize(
    "spec",
    [
        SweepSpec(swept="s_x", lo=-0.6, hi=0.6, steps=41, lam=0.36, a_overlap=0.4,
                  beta=1.1, gamma=2.0, delta=0.3, yz_angle=0.7),
        # next to the dark port: 60 of 61 rows blank on the weights' sum
        SweepSpec(swept="beta", lo=0.0, hi=1e-3, steps=61, lam=1.0, a_overlap=0.4,
                  s_x=-0.9999999999, gamma=4.0, delta=1.0, yz_angle=2.5),
        # Bloch length, weights range and dark-port rows
        SweepSpec(swept="s_x", lo=-1.000000000001, hi=1.000000000001, steps=9,
                  lam=1.000000000001, a_overlap=0.5, beta=1.0, yz_angle=0.3),
        SweepSpec(swept="beta", lo=0.0, hi=math.pi, steps=9, lam=1.000000000001,
                  a_overlap=0.5, s_x=1.0000000000005, yz_angle=0.7),
    ],
)
def test_sweep_matches_the_scalar_api_row_by_row(spec, capsys):
    lines = run_sweep(spec)
    rows, warnings = scalar_sweep(spec)
    assert capsys.readouterr().err.splitlines() == warnings
    assert lines[0] == SWEEP_HEADER and len(lines) == len(rows) + 1
    for line, (value, row) in zip(lines[1:], rows):
        fields = line.split(",")
        assert fields[0] == _fmt(value)
        if row is None:
            assert fields[1:] == [""] * 7
            continue
        for k in (0, 2, 4, 5, 6):  # closed forms and weights: byte for byte
            assert fields[1 + k] == _fmt(row[k])
        for k in (1, 3):  # V_scan and D_trace
            assert abs(float(fields[1 + k]) - row[k]) <= 1e-15


def test_sweep_cli_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = [
        "sweep", "--param", "sx", "--lo", "-0.6", "--hi", "0.6", "--steps", "7",
        "--lam", "0.36", "--A", "0.3333333333333333", "--beta", "pi/2",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.decode().splitlines()[0] == SWEEP_HEADER
    assert b"\r" not in data


def test_sweep_cli_rejects_unwritable_output(tmp_path):
    argv = [
        "sweep", "--param", "beta", "--lo", "0", "--hi", "pi", "--steps", "3",
        "--lam", "0.5", "--A", "0.5", "--sx", "0.1",
        "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
    ]
    assert main(argv) == 2


# --- figures ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tables():
    return figure_tables()


def test_figure_tables_have_expected_shape(tables):
    assert sorted(tables) == [
        "fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "fig3c", "fig3d",
    ]
    for stem, lines in tables.items():
        assert len(lines) == 1 + 3 * 501
        expected_header = "curve,param,V_closed" if stem.startswith("fig2") else "curve,param,D_closed"
        assert lines[0] == expected_header


FIGURE_PARAMETERS = {  # stem -> (lam, a_overlap)
    "fig2a": (9 / 25, 1 / 3), "fig2b": (9 / 25, 1 / 3),
    "fig2c": (1.0, 1 / 3), "fig2d": (1.0, 1 / 3),
    "fig3a": (1.0, 1 / 3), "fig3b": (1.0, 1 / 3),
    "fig3c": (1.0, 0.8), "fig3d": (1.0, 0.8),
}


def test_figure_rows_match_the_scalar_closed_forms(tables):
    # The tables are evaluated as arrays; every row must be the byte-exact
    # formatted value the scalar API gives at that row's parameters.
    for stem, lines in tables.items():
        lam, a_overlap = FIGURE_PARAMETERS[stem]
        for line in lines[1:]:
            label, param, value = line.split(",")
            name, _, fixed = label.partition("=")
            if name == "beta":
                s_x, beta = float(param), BeamSplitterAngle(parse_angle(fixed))
            else:
                s_x, beta = float(fixed), BeamSplitterAngle(float(param))
            if stem.startswith("fig2"):
                state = BlochState(s_x, 0.0, math.sqrt(max(lam - s_x * s_x, 0.0)))
                expected = visibility_closed(state, a_overlap, beta)
            else:
                expected = distinguishability_closed(s_x, beta, a_overlap)
            assert value == _fmt(expected), (stem, line)


def parse_curves(lines):
    curves = {}
    for line in lines[1:]:
        label, param, value = line.split(",")
        curves.setdefault(label, []).append((float(param), float(value)))
    return curves


def test_pure_state_visibility_peaks_hit_the_overlap(tables):
    curves = parse_curves(tables["fig2c"])
    assert len(curves) == 3
    for label, points in curves.items():
        beta = parse_angle(label.split("=")[1])
        params = np.array([p for p, _ in points])
        values = np.array([v for _, v in points])
        k = int(np.argmax(values))
        assert values[k] == pytest.approx(1 / 3, abs=1e-6)
        assert abs(params[k] - (-math.cos(beta))) <= (params[1] - params[0]) * 1.01


def test_mixed_state_visibility_peaks_follow_the_damped_locus(tables):
    curves = parse_curves(tables["fig2a"])
    for label, points in curves.items():
        beta = parse_angle(label.split("=")[1])
        params = np.array([p for p, _ in points])
        values = np.array([v for _, v in points])
        k = int(np.argmax(values))
        assert abs(params[k] - (-0.36 * math.cos(beta))) <= (params[1] - params[0]) * 1.01


@pytest.mark.parametrize("pair", [("fig3a", "fig3c"), ("fig3b", "fig3d")])
def test_valley_positions_do_not_depend_on_the_overlap(tables, pair):
    low = parse_curves(tables[pair[0]])
    high = parse_curves(tables[pair[1]])
    for label in low:
        lo_params, lo_values = zip(*low[label])
        hi_params, hi_values = zip(*high[label])
        k_lo = int(np.argmin(lo_values))
        k_hi = int(np.argmin(hi_values))
        assert lo_params[k_lo] == pytest.approx(hi_params[k_hi], abs=1e-2)


def single_sign_change(values):
    diffs = np.diff(values)
    signs = np.sign(diffs[np.abs(diffs) > 1e-14])
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return changes, (signs[0] if signs.size else 0)


def test_every_visibility_curve_rises_then_falls(tables):
    for stem in ("fig2a", "fig2b", "fig2c", "fig2d"):
        for label, points in parse_curves(tables[stem]).items():
            changes, first = single_sign_change([v for _, v in points])
            assert changes == 1, (stem, label)
            assert first > 0, (stem, label)


def test_every_distinguishability_curve_falls_then_rises(tables):
    for stem in ("fig3a", "fig3b", "fig3c", "fig3d"):
        for label, points in parse_curves(tables[stem]).items():
            changes, first = single_sign_change([v for _, v in points])
            assert changes == 1, (stem, label)
            assert first < 0, (stem, label)


def test_figures_cli_is_byte_deterministic(tmp_path):
    dir1 = tmp_path / "run1"
    dir2 = tmp_path / "run2"
    assert main(["figures", "--out-dir", str(dir1)]) == 0
    assert main(["figures", "--out-dir", str(dir2)]) == 0
    for stem in ("fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "fig3c", "fig3d"):
        a = (dir1 / f"{stem}.csv").read_bytes()
        b = (dir2 / f"{stem}.csv").read_bytes()
        assert a == b
        assert b"\r" not in a


# --- verify -----------------------------------------------------------------------


def test_verify_passes_and_is_deterministic(capsys):
    assert main(["verify", "--draws", "25", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    summary = json.loads(first)
    for entry in summary.values():
        assert set(entry) == {"cases", "failures", "max_error"}
        assert entry["cases"] == 25
        assert entry["failures"] == 0
    assert main(["verify", "--draws", "25", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_verify_injected_fault_fails(capsys):
    code = main(["verify", "--draws", "25", "--seed", "7",
                 "--tolerance", "visibility_oracle=1e-16"])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["visibility_oracle"]["failures"] > 0


def test_cached_parser_carries_nothing_between_calls(capsys):
    # The parser is built once per process; an append option's values must
    # not accumulate into its default from one main() call to the next.
    assert main(["verify", "--draws", "1", "--tolerance", "extremum_loci=1e-30"]) == 1
    assert main(["verify", "--draws", "1"]) == 0
    capsys.readouterr()


def test_verify_rejects_unknown_tolerance(capsys):
    assert main(["verify", "--draws", "5", "--tolerance", "bogus=1e-3"]) == 2
    assert "unknown tolerance" in capsys.readouterr().err
    assert main(["verify", "--draws", "5", "--tolerance", "visibility_oracle=abc"]) == 2
    assert "visibility_oracle" in capsys.readouterr().err


def test_verify_rejects_nonpositive_draws(capsys):
    assert main(["verify", "--draws", "0"]) == 2
    assert "draws" in capsys.readouterr().err


def test_verify_rejects_negative_seed(tmp_path, capsys):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"seed": -3}))
    for argv in (["verify", "--seed", "-1"], ["verify", "--config", str(config)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be nonnegative") and err.count("\n") == 1


def test_verify_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"seed": 3, "draws": 99, "tolerances": {}}))
    assert main(["verify", "--config", str(config), "--draws", "10"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert all(entry["cases"] == 10 for entry in summary.values())


def test_verify_rejects_a_config_file_json_cannot_decode(tmp_path, capsys):
    # A UTF-16 byte-order mark is not UTF-8, and json cannot read an integer
    # past Python's digit limit: invalid input, not a failed run.
    config = tmp_path / "verify.json"
    for content in (b"\xff\xfe{}", b'{"seed": ' + b"1" * 5000 + b"}"):
        config.write_bytes(content)
        assert main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file is not valid UTF-8 JSON") and err.count("\n") == 1


def test_verify_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "verify.json"
    config.write_text("{not json")
    assert main(["verify", "--config", str(config)]) == 2
    config.write_text(json.dumps({"seeds": 3}))
    assert main(["verify", "--config", str(config)]) == 2
    for bad in (
        {"draws": "x"},
        {"tolerances": [1, 2]},
        [1],
        {"draws": 2.9, "seed": True},
        {"draws": 2.9},
        {"seed": True},
        {"draws": False},
        {"seed": 1.5},
        {"draws": float("inf")},
    ):
        config.write_text(json.dumps(bad))
        assert main(["verify", "--config", str(config)]) == 2
