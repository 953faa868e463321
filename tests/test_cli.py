import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzi_duality import cli, interferometer, verify
from mzi_duality.cli import (
    SWEEP_HEADER,
    SweepSpec,
    _format_numbers,
    figure_tables,
    main,
    parse_angle,
    run_sweep,
)
from mzi_duality.duality import (
    complementarity_residual,
    distinguishability_closed,
    distinguishability_kernel,
    distinguishability_trace_norm,
    path_weights,
    visibility_closed,
    visibility_kernel,
    visibility_scan,
)
from mzi_duality.errors import DualityError, InvalidInputError
from mzi_duality.interferometer import DENOMINATOR_TOL, BeamSplitterAngle, BlochState, port_terms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fmt(value):
    """The output number format, written out: the reference for every CSV number."""
    return "%.17g" % value


def formatted(values):
    return [text.decode("ascii") for text in _format_numbers(np.asarray(values, float)).tolist()]


# --- number formatting -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_format_numbers_equals_the_format_on_drawn_floats(values):
    # st.floats() draws nan, infinities, zeros and subnormals too.
    assert formatted(values) == [_fmt(v) for v in values]


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


FORMAT_EDGES = [
    0.0, 5e-324, 2.2250738585072014e-308,
    *(x for k in range(-6, 19) for x in neighbours(10.0**k)),
    *neighbours(1e-4),
    1000000000000000.25, 1000000000000000.75,  # exact ties: half-even
    *neighbours(2.0**53),
    1 / 3, math.pi,
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_format_numbers_equals_the_format_at_the_edges(sign):
    values = [sign * x for x in FORMAT_EDGES]
    assert formatted(values) == [_fmt(v) for v in values]


@pytest.mark.parametrize("binades", [(0, 2047), (1023 - 14, 1023 + 57)])
def test_format_numbers_equals_the_format_on_every_binade(binades):
    # 100 000 values log-uniform over the binades of the whole double range,
    # then over those of the exponent-free window [1e-4, 1e17), both signs.
    rng = np.random.default_rng(20261019)
    size = 100_000
    exponent = rng.integers(*binades, size=size, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, size=size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    values = (sign | exponent | mantissa).view(np.float64)
    assert formatted(values) == [_fmt(v) for v in values.tolist()]


def test_format_numbers_passes_no_special_value_to_log10_or_a_cast():
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert formatted(values) == [_fmt(v) for v in values]


def test_format_numbers_keeps_input_order_across_every_group():
    # The lanes are laid out sorted by (E, sign), 21 decades times 2 signs,
    # and put back in input order at the end; fallback lanes are mixed in.
    mantissas = [1.0, 1.25, 3.0000000000000004, 9.999999999999998, math.pi]
    grouped = [s * m * 10.0**e for e in range(-4, 17) for s in (1.0, -1.0) for m in mantissas]
    fallback = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 5e-5, -5e-5, 1e17, -1e17]
    groups = {(Decimal(v).adjusted(), v < 0) for v in grouped if 1e-4 <= abs(v) < 1e17}
    assert len(groups) == 42
    values = np.array(grouped + fallback)
    np.random.default_rng(42).shuffle(values)
    assert formatted(values) == [_fmt(v) for v in values.tolist()]


def test_format_numbers_returns_flat_bytes_in_c_order():
    empty = _format_numbers(np.array([]))
    assert empty.dtype == np.dtype("S24") and empty.shape == (0,)
    grid = np.array([[0.5, -1e17, 2.0], [1 / 3, 0.0, -7e-5]])
    text = _format_numbers(grid)
    assert text.dtype == np.dtype("S24") and text.shape == (6,)
    assert formatted(grid) == [_fmt(v) for v in grid.ravel().tolist()]


def test_digit_tables_hold_every_zero_padded_text():
    assert cli._DIGIT_PAIRS.view("S2").tolist() == [b"%02d" % k for k in range(100)]
    assert cli._DIGIT_QUADS.view("S4").tolist() == [b"%04d" % k for k in range(10_000)]


# --- CSV lines ---------------------------------------------------------------------


def test_csv_lines_join_fields_of_every_width():
    # Columns of their own widths, broadcast as figures' (3, n) tables are: a
    # 10-byte label column of shape (3, 1), a param row (n,) and a value table
    # (3, n). A field filling its whole width (the 10-byte label, the 24-byte
    # number) has no NUL before its comma; an all-NUL field comes out empty.
    widest = b"-2.2250738585072014e-308"
    labels = np.array([b"beta=pi/4", b"beta=3pi/4", b"sx=0"], "S10")[:, None]
    params = np.array([b"0.5", widest], "S24")
    values = np.array([[b"1", b""], [b"", widest], [b"0", b"0.25"]], "S24")
    assert (labels.itemsize, params.itemsize) == (len(b"beta=3pi/4"), len(widest))
    assert cli._csv_lines(labels, params, values) == (
        "beta=pi/4,0.5,1\n"
        "beta=pi/4,-2.2250738585072014e-308,\n"
        "beta=3pi/4,0.5,\n"
        "beta=3pi/4,-2.2250738585072014e-308,-2.2250738585072014e-308\n"
        "sx=0,0.5,0\n"
        "sx=0,-2.2250738585072014e-308,0.25\n"
    )
    # The sweep's layout: a param column, then seven value columns, each a
    # strided column of a (rows, 7) table; a blank row's values are all NUL.
    table = np.zeros((2, 7), "S24")
    table[1] = widest
    assert cli._csv_lines(np.array([b"1", b"-0.5"], "S24"), *table.T) == (
        "1,,,,,,,\n-0.5" + f",{widest.decode()}" * 7 + "\n"
    )
    assert cli._csv_lines(*np.zeros((8, 2), "S24")) == ",,,,,,,\n" * 2


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


def test_report_accepts_s_x_slack_above_one(capsys):
    # s_x - 1 = 4e-13 lies within BlochState's slack and counts as a certain
    # path: the report used to exit 2 on a distinguishability above 1.
    assert main(["report", "--sx", "1.0000000000004", "--A", "0.5", "--beta", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distinguishability"] == 1.0
    assert (payload["omega_a"], payload["omega_b"]) == (1.0, 0.0)


def test_report_accepts_pi_notation(capsys):
    assert main(["report", "--beta", "pi/2", "--A", "0.5"]) == 0
    json.loads(capsys.readouterr().out)


NEGATIVE_ZERO_COMMANDS = [
    ["report", "--A", "Z", "--sy", "0.5", "--beta", "1"],
    ["report", "--sy", "0.5", "--beta", "Z"],
    ["report", "--A", "Z", "--sy", "0.6", "--beta", "Z"],
    ["sweep", "--param", "sx", "--lo", "-0.5", "--hi", "0.5", "--steps", "3",
     "--lam", "0.5", "--A", "0.5", "--beta", "Z"],
    ["sweep", "--param", "beta", "--lo", "0", "--hi", "3", "--steps", "4",
     "--lam", "0.5", "--sx", "0.2", "--A", "Z"],
]


@pytest.mark.parametrize("argv", NEGATIVE_ZERO_COMMANDS)
def test_a_negative_zero_input_writes_the_bytes_of_a_zero(argv, tmp_path, capsys):
    # V = A sin(beta) |(s_y, s_z)| / den is -0.0 where A or beta is -0.0, and
    # clipping keeps that sign: report printed "visibility": -0.0 and the
    # sweep -0 in every V_closed field.
    outputs = []
    for zero in ("-0", "0"):
        out = tmp_path / f"{zero}.csv"
        args = [zero if arg == "Z" else arg for arg in argv]
        assert main(args + (["--out", str(out)] if argv[0] == "sweep" else [])) == 0
        outputs.append((capsys.readouterr(), out.read_bytes() if out.exists() else b""))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].out + outputs[0][1].decode() != ""


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


@pytest.mark.parametrize(
    "steps, message",
    [
        (2.5, "steps must be an integer, got 2.5"),
        (True, "steps must be an integer, got True"),
        (np.bool_(True), "steps must be an integer, got "),
        (math.inf, "steps must be an integer, got inf"),
        ("three", "steps must be int, got 'three'"),
        (None, "steps must be int, got None"),
    ],
)
def test_sweep_spec_rejects_a_step_count_that_is_not_an_integer(steps, message):
    # The same check as RunConfig's integer settings: invalid input, never a
    # bare TypeError from np.linspace or a boolean taken as 1.
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        small_sx_spec(steps=steps)


def test_sweep_spec_takes_an_integral_step_count_as_that_integer():
    spec = small_sx_spec(steps=3.0)
    assert spec.steps == 3 and type(spec.steps) is int
    assert spec == small_sx_spec(steps=3)
    assert run_sweep(spec) == run_sweep(small_sx_spec(steps=3))
    assert run_sweep(small_sx_spec(steps="13")) == run_sweep(small_sx_spec())


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--lo", "0"], "sweeping beta requires a fixed s_x"),
        (["--lo", "-0.1", "--sx", "0.5"], "beta range must stay within [0, pi]"),
    ],
    ids=["no s_x", "beta below 0"],
)
def test_beta_sweep_usage_errors_exit_2(extra, message, tmp_path, capsys):
    argv = ["sweep", "--param", "beta", "--hi", "1", "--steps", "3", "--lam", "1",
            "--A", "0.5", "--out", str(tmp_path / "beta.csv"), *extra]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "beta.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--param", "sx", "--lo", "-0.6", "--hi", "0.6", "--steps", str(10**13),
         "--lam", "0.36", "--A", "0.5", "--beta", "pi/2", "--out", "x.csv"],
        ["verify", "--draws", str(10**13)],
    ],
    ids=["sweep --steps", "verify --draws"],
)
def test_a_count_too_large_to_allocate_exits_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    # 10**13 rows or draws ask numpy for tens of terabytes at once; the allocation
    # fails before any memory is committed, and no CSV is written.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rows_satisfy_the_complementarity_identity():
    lines = run_sweep(small_sx_spec()).splitlines()
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
    lines = run_sweep(small_sx_spec(steps=241)).splitlines()
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
    rows = [[float(x) for x in line.split(",")] for line in run_sweep(spec).splitlines()[1:]]
    best = min(rows, key=lambda row: row[3])
    step = math.pi / 200
    assert abs(best[0] - 2 * math.pi / 3) <= step
    assert best[3] == pytest.approx(0.6, abs=1e-4)


def test_beta_sweep_endpoints_are_exact():
    spec = SweepSpec(
        swept="beta", lo=0.0, hi=math.pi, steps=9, lam=0.36,
        a_overlap=1 / 3, s_x=0.5,
    )
    lines = run_sweep(spec).splitlines()
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
    lines = run_sweep(spec).splitlines()
    assert lines[-1].endswith(",,,,,,,")
    assert "degenerate" in capsys.readouterr().err
    complete = [line for line in lines[1:] if not line.endswith(",,,,,,,")]
    assert len(complete) == 4


def test_sweep_blanks_a_dark_denominator_with_valid_weights_and_scan(monkeypatch, capsys):
    # No real row reaches the screen's dark-port term alone: a den-dark row
    # also fails the weights or the scan. So one row's den is set dark while
    # its weights and scan stay valid.
    columns = cli.closed_form_columns

    def dark_row(*args):
        *values, den = columns(*args)
        den = den.copy()
        den[4] = 0.5 * DENOMINATOR_TOL
        return (*values, den)

    monkeypatch.setattr(cli, "closed_form_columns", dark_row)
    spec = small_sx_spec()
    lines = run_sweep(spec).splitlines()[1:]
    blank = [i for i, line in enumerate(lines) if line.endswith(",,,,,,,")]
    assert blank == [4]
    value, dark_port = _fmt(spec.grid()[4]), interferometer.OUTCOMES[2][1]
    assert capsys.readouterr().err == f"warning: s_x={value} is degenerate ({dark_port})\n"


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
            weights = path_weights(state.s_x, angle)
            row = [
                visibility_closed(state, spec.a_overlap, angle),
                visibility_scan(state, spec.detector, angle),
                distinguishability_closed(state.s_x, angle, spec.a_overlap),
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


EDGE_SPECS = [
    SweepSpec(swept="s_x", lo=-0.6, hi=0.6, steps=41, lam=0.36, a_overlap=0.4,
              beta=1.1, gamma=2.0, delta=0.3, yz_angle=0.7),
    # next to the dark port: 60 of 61 rows blank on the weights' sum
    SweepSpec(swept="beta", lo=0.0, hi=1e-3, steps=61, lam=1.0, a_overlap=0.4,
              s_x=-0.9999999999, gamma=4.0, delta=1.0, yz_angle=2.5),
    # Bloch length rows at both ends
    SweepSpec(swept="s_x", lo=-1.000000000001, hi=1.000000000001, steps=9,
              lam=1.000000000001, a_overlap=0.5, beta=1.0, yz_angle=0.3),
    # a dark-port row at beta = pi
    SweepSpec(swept="beta", lo=0.0, hi=math.pi, steps=9, lam=1.000000000001,
              a_overlap=0.5, s_x=1.0000000000005, yz_angle=0.7),
    # s_x's slack beyond +-1 at both ends, folded onto a certain path
    SweepSpec(swept="s_x", lo=-1.0000000000004, hi=1.0000000000004, steps=3,
              lam=1.0000000000008, a_overlap=0.5, beta=1.0),
    # a beta sweep with every row lit: the fixed state is passed once
    SweepSpec(swept="beta", lo=0.0, hi=math.pi, steps=301, lam=0.81, a_overlap=0.7,
              s_x=0.3, gamma=2.0),
]


# Sweeps with every row blank, next to the dark port of a certain path: with
# s_x = 1 near pi, 24 omega_a-range rows, 36 weight-sum rows and a dark row;
# with s_x = -1 near 0, the same with omega_b. Between them and EDGE_SPECS
# every outcome code blanks some row. The last is a beta sweep whose fixed
# state is too long, squared length 1.0000000000010003: every row is blank
# on the Bloch length rule, one code for the whole sweep.
BLANK_SPECS = [
    SweepSpec(swept="beta", lo=math.pi - 1e-4, hi=math.pi, steps=61, lam=1.0,
              a_overlap=0.5, s_x=1.0),
    SweepSpec(swept="beta", lo=0.0, hi=1e-4, steps=61, lam=1.0, a_overlap=0.5, s_x=-1.0),
    SweepSpec(swept="beta", lo=0.5, hi=1.0, steps=5, lam=1.0 + 1e-12, a_overlap=0.5,
              s_x=0.00225, yz_angle=0.37),
]


@pytest.mark.parametrize("spec", [*EDGE_SPECS, *BLANK_SPECS])
def test_sweep_matches_the_scalar_api_row_by_row(spec, capsys):
    lines = run_sweep(spec).splitlines()
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


README_SWEEP = SweepSpec(swept="s_x", lo=-0.6, hi=0.6, steps=241, lam=0.36,
                         a_overlap=0.3333333333333333, beta=math.pi / 2)


@pytest.mark.parametrize("spec", [README_SWEEP, *EDGE_SPECS, *BLANK_SPECS])
def test_sweep_texts_equal_a_reference_assembled_with_the_format(spec, monkeypatch, capsys):
    # The CSV and its stderr as whole texts. The reference writes each
    # number run_sweep formats (params first, then the lit rows' seven
    # values) with "%.17g", and takes the blank rows and the warnings from
    # the scalar API.
    numbers = []

    def recording(values):
        numbers.extend(np.ravel(values).tolist())
        return _format_numbers(values)

    monkeypatch.setattr(cli, "_format_numbers", recording)
    text = run_sweep(spec)
    err = capsys.readouterr().err
    rows, expected_warnings = scalar_sweep(spec)
    assert numbers[: spec.steps] == spec.grid().tolist()
    values = iter(numbers[spec.steps :])
    lines = [SWEEP_HEADER]
    for value, row in rows:
        fields = [""] * 7 if row is None else [_fmt(next(values)) for _ in range(7)]
        lines.append(",".join([_fmt(value), *fields]))
    assert next(values, None) is None
    assert text == "\n".join(lines) + "\n"
    assert err == "".join(warning + "\n" for warning in expected_warnings)


# Not BLANK_SPECS: they have no lit row, and the test asserts that some row is lit.
@pytest.mark.parametrize("spec", EDGE_SPECS)
def test_edge_sweep_rows_meet_the_row_identities(spec):
    # Each lit row at verify's default tolerances: V against the scan, D
    # against the trace norm, V^2 + D^2 + residual = 1 with V^2 + D^2 at most
    # 1, and D^2 + 4 omega_a omega_b A^2 = 1 with omega_a + omega_b = 1. The
    # slack rows used to fail the first: the closed forms read a folded
    # vector and the scan the raw one.
    tol = {name: check.tolerance for name, check in verify.CHECKS.items()}
    a = spec.a_overlap
    lit = [line for line in run_sweep(spec).splitlines()[1:] if not line.endswith(",,,,,,,")]
    assert lit
    for line in lit:
        _, v, v_scan, d, d_trace, residual, w_a, w_b = map(float, line.split(","))
        assert abs(v - v_scan) <= tol["visibility_oracle"], line
        assert abs(d - d_trace) <= tol["distinguishability_oracle"], line
        saturation = max(abs(1.0 - v * v - d * d - residual), v * v + d * d - 1.0 - 1e-12)
        assert saturation <= tol["complementarity"], line
        weights = max(abs(d * d + 4.0 * w_a * w_b * (a * a) - 1.0), abs(w_a + w_b - 1.0))
        assert weights <= tol["weights_identity"], line


def test_sweep_folds_s_x_slack_onto_a_certain_path(tmp_path):
    # The 3-row sweep used to write D_closed = 1.0000000000003348 and
    # omega_a = -6.7e-13 in its first row.
    out = tmp_path / "slack.csv"
    argv = ["sweep", "--param", "sx", "--lo", "-1.0000000000004", "--hi", "1.0000000000004",
            "--steps", "3", "--lam", "1.0000000000008", "--A", "0.5", "--beta", "1",
            "--out", str(out)]
    assert main(argv) == 0
    rows = [[float(f) for f in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    for row in rows:
        assert row[3] <= 1.0 and min(row[6:]) >= 0.0
    assert [rows[0][3], rows[2][3]] == [1.0, 1.0]


def check_sweep_text(text, steps):
    """Every line ends in LF, every field round-trips through _fmt, and a
    blank row is its param followed by seven commas."""
    lines = text.splitlines(keepends=True)
    assert "\r" not in text and all(line.endswith("\n") for line in lines)
    assert lines[0] == SWEEP_HEADER + "\n" and len(lines) == steps + 1
    for line in lines[1:]:
        fields = line[:-1].split(",")
        assert len(fields) == 8 and fields[0] != "", line
        if "" in fields:
            assert line == fields[0] + ",,,,,,,\n"
        assert all(_fmt(float(f)) == f for f in fields if f), line


@pytest.mark.parametrize("spec", EDGE_SPECS)
def test_edge_sweep_text_is_well_formatted(spec):
    check_sweep_text(run_sweep(spec), spec.steps)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(0.01, 1.0),
    lo=st.floats(-1.0, 0.0),
    hi=st.floats(0.01, 1.0),
    a_overlap=st.floats(0.0, 1.0),
    beta=st.floats(0.0, math.pi),
    steps=st.integers(2, 40),
)
def test_drawn_sweep_text_is_well_formatted(lam, lo, hi, a_overlap, beta, steps):
    edge = math.sqrt(lam)
    spec = SweepSpec(swept="s_x", lo=lo * edge, hi=hi * edge, steps=steps, lam=lam,
                     a_overlap=a_overlap, beta=beta)
    check_sweep_text(run_sweep(spec), steps)


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


SMALL_SWEEP = [
    "sweep", "--param", "sx", "--lo", "-0.6", "--hi", "0.6", "--steps", "7",
    "--lam", "0.36", "--A", "0.3333333333333333", "--beta", "pi/2",
]


def test_sweep_cli_overwrites_a_longer_file_with_exactly_the_new_bytes(tmp_path):
    fresh, out = tmp_path / "fresh.csv", tmp_path / "out.csv"
    assert main(SMALL_SWEEP + ["--out", str(fresh)]) == 0
    out.write_bytes(b"9" * 100_000)
    assert main(SMALL_SWEEP + ["--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    # and a figures table written over a longer file, in the same directory
    (tmp_path / "fig2a.csv").write_bytes(b"9" * 100_000)
    assert main(["figures", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fig2a.csv").read_text() == figure_tables()["fig2a"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_sweep_cli_writes_through_a_fifo(tmp_path):
    # A pipe cannot be truncated; the writer must leave it as it is.
    fresh, fifo = tmp_path / "fresh.csv", tmp_path / "pipe"
    assert main(SMALL_SWEEP + ["--out", str(fresh)]) == 0
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(SMALL_SWEEP + ["--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert received == [fresh.read_bytes()]


def test_a_new_output_file_gets_the_mode_that_open_gives(tmp_path):
    reference, out = tmp_path / "reference.csv", tmp_path / "out.csv"
    with open(reference, "w"):
        pass
    assert main(SMALL_SWEEP + ["--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


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
    return {stem: text.splitlines() for stem, text in figure_tables().items()}


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


def test_figure_tables_equal_a_line_by_line_reference():
    # The per-row algorithm the one-pass tables replaced, kept as their oracle.
    beta_curves = (("beta=pi/4", math.pi / 4), ("beta=pi/2", math.pi / 2), ("beta=3pi/4", 3 * math.pi / 4))
    sx_curves = (("sx=-0.5", -0.5), ("sx=0", 0.0), ("sx=0.5", 0.5))
    for stem, text in figure_tables().items():
        lam, a_overlap = FIGURE_PARAMETERS[stem]
        quantity = "V" if stem.startswith("fig2") else "D"
        lines = [f"curve,param,{quantity}_closed"]
        if stem[-1] in "ac":
            edge = math.sqrt(lam)
            grid, curves = np.linspace(-edge, edge, 501), beta_curves
        else:
            grid, curves = np.linspace(0.0, math.pi, 501), sx_curves
        for label, fixed in curves:
            s_x, beta = (grid, fixed) if stem[-1] in "ac" else (fixed, grid)
            sin_beta, den = port_terms(s_x, beta)
            if quantity == "V":
                yz = np.sqrt(np.maximum(lam - s_x * s_x, 0.0))
                values = visibility_kernel(yz, a_overlap, sin_beta, den).clip(0.0, 1.0)
            else:
                values = distinguishability_kernel(s_x, a_overlap, sin_beta, den)
            lines += [f"{label},{_fmt(p)},{_fmt(v)}" for p, v in zip(grid.tolist(), values.tolist())]
        assert text == "\n".join(lines) + "\n", stem


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


def test_outputs_do_not_follow_the_blas_kernel():
    # The README sweep, EDGE_SPECS' sweeps, the figures and the default verify
    # in a child process on OpenBLAS's Sandybridge kernel, which has no fused
    # multiply-add, against this process's default kernel. The closed forms,
    # the path weights, the trace norm, the fringe fold, the joint state, the
    # number formatter and verify's eigen checks, whose 2x2 products are
    # elementwise sums, make no BLAS product, so every sweep column, V_scan
    # included, every figure and all 13 verify entries are byte-identical.
    # state_validity's max_error is held too: at the default seed it is a
    # trace error; its eigvalsh negativity, which LAPACK computes on the BLAS
    # kernel, differs between the kernels but stays below it. A BLAS build
    # that ignores OPENBLAS_CORETYPE runs its one kernel twice, and the test
    # passes trivially.
    specs = [README_SWEEP, *EDGE_SPECS]
    child = (
        "import json, sys\n"
        "from mzi_duality import cli, verify\n"
        "specs = [cli.SweepSpec(**kwargs) for kwargs in json.loads(sys.argv[1])]\n"
        "print(json.dumps([[cli.run_sweep(spec) for spec in specs], cli.figure_tables(),\n"
        "                  verify.run_verification(verify.RunConfig())]))\n"
    )
    arguments = [
        {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec) if f.init} for spec in specs
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               OPENBLAS_CORETYPE="Sandybridge")
    result = subprocess.run(
        [sys.executable, "-c", child, json.dumps(arguments)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    sweeps, tables, summary = json.loads(result.stdout)
    assert sweeps == [run_sweep(spec) for spec in specs]
    assert tables == figure_tables()
    expected = verify.run_verification(verify.RunConfig())
    assert len(summary) == 13 and summary == expected


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


def test_verify_counts_a_failed_density_check_as_a_suite_failure(monkeypatch, capsys):
    # The stacked joint states are not re-checked at run time: a 1e-9
    # relative fault in the closed-form expansion fails the suite that
    # compares it, with a finite worst error and nothing on stderr.
    closed_form = verify._evolve_closed_form
    monkeypatch.setattr(verify, "_evolve_closed_form", lambda *args: closed_form(*args) * (1.0 + 1e-9))
    assert main(["verify", "--draws", "20"]) == 1
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    failed = summary.pop("pipeline_equivalence")
    assert failed["failures"] == failed["cases"] == 20 and 8e-10 < failed["max_error"] < 1e-9
    assert all(entry["failures"] == 0 for entry in summary.values())
    assert captured.err == ""
    # The reduced detector state keeps its density check: a check that
    # raises is a failure of its suite, with a NaN worst error and a note on
    # stderr, not invalid input.
    monkeypatch.undo()
    partial_trace = verify.trace_path
    monkeypatch.setattr(verify, "trace_path", lambda m: partial_trace(m) * (1.0 + 1e-9))
    assert main(["verify", "--draws", "20"]) == 1
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    failed = summary.pop("reduced_detector_state")
    assert failed["failures"] == failed["cases"] == 20 and math.isnan(failed["max_error"])
    assert all(entry["failures"] == 0 for entry in summary.values())
    note = "suite reduced_detector_state raised: density operator trace deviates from 1 by 1.000e-09"
    assert note in captured.err and len(captured.err.splitlines()) == 1


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


@pytest.mark.parametrize(
    "tolerance, message",
    [
        ("visibility_oracle=0", "tolerance 'visibility_oracle' must be finite and positive"),
        ("foo", "tolerance override must look like name=value: 'foo'"),
    ],
    ids=["nonpositive", "no value"],
)
def test_verify_rejects_a_malformed_tolerance(tolerance, message, capsys):
    assert main(["verify", "--draws", "5", "--tolerance", tolerance]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
        {"draws": 5, "tolerances": {"visibility_oracle": True}},
    ):
        config.write_text(json.dumps(bad))
        assert main(["verify", "--config", str(config)]) == 2


# test_verify_rejects_bad_config's bad settings that are JSON objects, and more
# that only a library caller can pass.
BAD_SETTINGS = [
    {"draws": "x"},
    {"tolerances": [1, 2]},
    {"draws": 2.9, "seed": True},
    {"draws": 2.9},
    {"seed": True},
    {"draws": False},
    {"seed": 1.5},
    {"draws": float("inf")},
    {"draws": 5, "tolerances": {"visibility_oracle": True}},
    {"draws": True},
    {"seed": np.True_},
    {"seed": None},
    {"draws": float("nan")},
    {"draws": 5, "tolerances": {"visibility_oracle": 10**400}},
    {"draws": 5, "tolerances": {"visibility_oracle": None}},
]


@pytest.mark.parametrize("settings", BAD_SETTINGS)
def test_run_config_rejects_every_bad_setting(settings):
    # The library route raises InvalidInputError, never a bare TypeError.
    with pytest.raises(InvalidInputError):
        verify.run_verification(verify.RunConfig(**settings))


def test_run_config_takes_an_int_an_integral_float_and_numeric_text_alike():
    expected = verify.run_verification(
        verify.RunConfig(seed=5, draws=3, tolerances={"visibility_oracle": 1e-9})
    )
    for seed, draws, tolerance in ((5, 3, 1e-9), (5.0, 3.0, "1e-9"), ("5", "3", "1e-9")):
        config = verify.RunConfig(seed=seed, draws=draws, tolerances={"visibility_oracle": tolerance})
        assert (config.seed, config.draws, config.tolerance("visibility_oracle")) == (5, 3, 1e-9)
        assert type(config.seed) is type(config.draws) is int
        assert verify.run_verification(config) == expected
    assert verify.RunConfig(draws=1, tolerances={"extremum_loci": 1}).tolerance("extremum_loci") == 1.0
