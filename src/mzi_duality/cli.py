"""Command-line front end: single-point reports, parameter sweeps, bundled
figure presets, and the randomized verification suites.

Exit codes: 0 success, 1 verification failure, 2 invalid input or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .duality import (
    closed_form_columns,
    distinguishability_kernel,
    distinguishability_trace_norms,
    duality_report,
    path_weights,
    visibility_kernel,
    visibility_scans,
)
from .errors import DualityError, InvalidInputError, _setting, require_finite, require_in_range
from .interferometer import (
    BLOCH_NORM_TOL,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    OUTCOMES,
    _onto_bloch_ball,
    _outcomes,
    port_terms,
)
from .verify import RunConfig, all_passed, run_verification

SWEEP_HEADER = "param,V_closed,V_scan,D_closed,D_trace,residual,omega_a,omega_b"
FIGURE_POINTS = 501
# Every output number: 17 significant digits round-trip a double. The CSV
# writers print it for whole arrays with _format_numbers, which gives the same
# bytes; NUMBER % v stays its definition and its fallback.
NUMBER = "%.17g"
_TEXT_WIDTH = 24  # the longest NUMBER text: -2.2250738585072014e-308

# _format_numbers' tables. 10^k is an exact double for k <= 22; Veltkamp's
# splitter 2^27 + 1 cuts each into halves of at most 26 bits.
_SPLITTER = 134217729.0
_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16)
# Text k of the 10 000 four-digit texts is one uint32: pair k // 100, then pair k % 100.
_DIGIT_QUADS = np.stack([_DIGIT_PAIRS.repeat(100), np.tile(_DIGIT_PAIRS, 100)], axis=1)
_DIGIT_QUADS = _DIGIT_QUADS.view(np.uint32).ravel()
_DIGIT_ROWS = np.arange(17, dtype=np.uint8)[:, None]

_ANGLE_RE = re.compile(
    r"^\s*(?P<mult>[+-]?(?:\d+\.?\d*|\.\d+)?)\s*pi\s*(?:/\s*(?P<div>\d+\.?\d*|\.\d+))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Angle in raw radians or as a multiple of pi ('pi/2', '3pi/4', '-pi')."""
    try:
        return float(text)
    except ValueError:
        pass
    match = _ANGLE_RE.match(text)
    if match is None:
        raise InvalidInputError(f"cannot parse angle {text!r}")
    mult_text = match.group("mult")
    if mult_text in ("", "+"):
        mult = 1.0
    elif mult_text == "-":
        mult = -1.0
    else:
        mult = float(mult_text)
    value = mult * math.pi
    if match.group("div") is not None:
        divisor = float(match.group("div"))
        if divisor == 0.0:
            raise InvalidInputError(f"angle {text!r} divides by zero")
        value /= divisor
    return value


def _scaled_exactly(a: np.ndarray, e: np.ndarray):
    """(hi, lo) with hi + lo == a * 10^(16 - e) exactly: Dekker's TwoProduct.

    Each product below is rounded on its own; numpy fuses no multiply-add
    across ufunc calls."""
    k = 16 - e
    hi = a * _POW10[k]
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _format_numbers(values) -> np.ndarray:
    """NUMBER % v for every value of a float64 array, as a flat bytes ('S24')
    array, in a fixed number of numpy passes.

    Where 1e-4 <= |v| < 1e17, NUMBER prints v's 17-digit significand N
    without an exponent. With E = floor(log10|v|), the exact product
    |v| * 10^(16 - E) = hi + lo lies in [1e16, 1e17); hi >= 1e16 > 2^53 is an
    even integer, so N = hi + rint(lo) is the correctly rounded, half-even
    significand that dtoa prints. Every other value (zeros, nan, infinities,
    subnormals and the exponent forms) is formatted by NUMBER % v.

    N's digits come from integer splits written as q = x // d and
    r = x - q * d, not np.divmod: numpy gives the same integers either way,
    but its divmod loops cost several times as much per element.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    size = v.size
    magnitude = np.abs(v)
    fallback = ~((magnitude >= 1e-4) & (magnitude < 1e17))  # nan compares false
    magnitude[fallback] = 1.0  # so log10 and the int casts see no 0, nan or inf
    e = np.floor(np.log10(magnitude)).astype(np.int64).clip(-4, 16)
    hi, lo = _scaled_exactly(magnitude, e)
    # log10 can miss the decade next to a power of ten: those lanes move by
    # one decade and are scaled again.
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(high | low)
    if moved.size:
        e[moved] += high[moved].astype(np.int64) - low[moved]
        hi[moved], lo[moved] = _scaled_exactly(magnitude[moved], e[moved])
    significand = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = significand == 10**17  # rounded up into the next decade
    significand[carry] = 10**16
    e += carry

    # One text layout per (E, sign) group: the lanes are sorted by group before
    # their digits are made, and only the finished text goes back in input order.
    group = ((e + 4) * 2 + (v < 0)).astype(np.uint8)
    order = np.argsort(group, kind="stable")
    significand, e = significand[order], e[order]
    # The 17 digits as ASCII, one row per digit position: the lead digit,
    # then four texts from the 4-digit table, split off at 10^8 and 10^4.
    lead = significand // 10**16
    rest = significand - lead * 10**16
    high = rest // 10**8
    eights = np.array([high, rest - high * 10**8], np.uint32)
    high = eights // 10**4
    fours = np.array([high, eights - high * 10**4])  # [split, half of eights, lane]
    digits = np.empty((17, size), np.uint8)
    digits[0] = lead + ord("0")
    quads = _DIGIT_QUADS.take(fours).view(np.uint8).reshape(2, 2, size, 4)
    digits[1:] = quads.transpose(1, 0, 3, 2).reshape(16, size)
    # The fraction's trailing zeros become NUL, which the 'S' dtype strips;
    # the integer part keeps its digits. The lead digit is never 0.
    last = ((digits != ord("0")) * _DIGIT_ROWS).max(axis=0)
    end = np.maximum(last + 1, e + 1).astype(np.uint8)
    digits *= _DIGIT_ROWS < end

    text = np.zeros((_TEXT_WIDTH, size), np.uint8)
    stop = 0
    for g, count in enumerate(np.bincount(group).tolist()):
        start, stop = stop, stop + count
        if not count:
            continue
        exponent, sign = g // 2 - 4, g % 2
        block, block_digits = text[sign:, start:stop], digits[:, start:stop]
        if sign:
            text[0, start:stop] = ord("-")
        if exponent >= 0:  # d...d.d...d, with no point if no fraction digit is left
            block[: exponent + 1] = block_digits[: exponent + 1]
            block[exponent + 1] = ord(".") * (end[start:stop] > exponent + 1)
            block[exponent + 2 : 18] = block_digits[exponent + 1 :]
        else:  # 0.0...0d...d
            block[: 1 - exponent] = ord("0")
            block[1] = ord(".")
            block[1 - exponent : 18 - exponent] = block_digits
    rows = np.empty(size, f"S{_TEXT_WIDTH}")
    rows[order] = np.ascontiguousarray(text.T).view(rows.dtype).ravel()
    slow = np.flatnonzero(fallback)
    if slow.size:
        rows[slow] = [(NUMBER % x).encode() for x in v[slow].tolist()]
    return rows


def _csv_lines(fields: np.ndarray) -> str:
    """One CSV line per row of a 2-D bytes ('S') array: full-width fields and
    separators, with every NUL dropped in one boolean pass (an all-NUL field is empty)."""
    rows, columns = fields.shape
    line = np.full((rows, columns, fields.itemsize + 1), ord(","), np.uint8)
    line[:, :, :-1] = fields.view(np.uint8).reshape(rows, columns, -1)
    line[:, -1, -1] = ord("\n")
    return line[line != 0].tobytes().decode("ascii")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: either s_x at fixed beta, or beta at fixed s_x.

    The total Bloch length lam is held fixed along the sweep; its share not
    carried by s_x goes to (s_y, s_z) along the direction set by yz_angle
    (s_z = r*cos, s_y = r*sin). Duality measures do not depend on that split.
    """

    swept: str
    lo: float
    hi: float
    steps: int
    lam: float
    a_overlap: float
    beta: float | None = None
    s_x: float | None = None
    gamma: float = 0.0
    delta: float = 0.0
    yz_angle: float = 0.0
    detector: DetectorConfig = field(init=False, repr=False)

    def __post_init__(self):
        if self.swept not in ("s_x", "beta"):
            raise InvalidInputError("swept parameter must be 's_x' or 'beta'")
        object.__setattr__(self, "steps", _setting(int, self.steps, "steps"))
        if self.steps < 2:
            raise InvalidInputError("steps must be at least 2")
        if not self.lo < self.hi:
            raise InvalidInputError("sweep range must satisfy lo < hi")
        require_in_range("lam", self.lam, hi=1.0 + BLOCH_NORM_TOL)
        require_finite(yz_angle=self.yz_angle)
        object.__setattr__(
            self, "detector", DetectorConfig(self.a_overlap, self.gamma, self.delta)
        )
        if self.swept == "s_x":
            if self.beta is None:
                raise InvalidInputError("sweeping s_x requires a fixed beta")
            BeamSplitterAngle(self.beta)
            edge = max(self.lo * self.lo, self.hi * self.hi)
            if edge > self.lam + BLOCH_NORM_TOL:
                raise InvalidInputError("s_x range must stay within +-sqrt(lam)")
        else:
            if self.s_x is None:
                raise InvalidInputError("sweeping beta requires a fixed s_x")
            require_finite(s_x=self.s_x)
            if self.s_x * self.s_x > self.lam + BLOCH_NORM_TOL:
                raise InvalidInputError("fixed s_x must satisfy s_x^2 <= lam")
            if self.lo < 0.0 or self.hi > math.pi:
                raise InvalidInputError("beta range must stay within [0, pi]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


def run_sweep(spec: SweepSpec) -> str:
    """CSV text (header first) for the sweep; degenerate points get empty fields.

    Every column is computed for all rows at once, the fixed parameter passed
    once as a length-1 column. Only the written fields are formatted, by
    _format_numbers: every row's param, and the lit rows' seven values. A row
    is left blank where the scalar API would raise: one
    interferometer._outcomes call gives every row's outcome code, and a row
    whose code is not 0 gets a warning on stderr that quotes its param text
    and the message of the error the scalar API raises there (OUTCOMES).
    """
    params = spec.grid()
    fixed = np.array([spec.beta if spec.swept == "s_x" else spec.s_x])
    s_x, beta = (params, fixed) if spec.swept == "s_x" else (fixed, params)
    # The input state of each row, as BlochState holds it; the Bloch length
    # rule reads the raw squared length bloch_lam.
    r = np.sqrt(np.maximum(spec.lam - s_x * s_x, 0.0))
    s_y, s_z = r * math.sin(spec.yz_angle), r * math.cos(spec.yz_angle)
    bloch_lam = s_x * s_x + s_y * s_y + s_z * s_z
    s_x, s_y, s_z, lam = _onto_bloch_ball(s_x, s_y, s_z, bloch_lam)
    # Rows at the dark port divide by a zero denominator; they are blanked.
    with np.errstate(divide="ignore", invalid="ignore"):
        v, d, residual, omega_a, omega_b, den = closed_form_columns(
            s_x, s_y, s_z, lam, spec.a_overlap, beta
        )
        v_scan, scan = visibility_scans(s_x, s_y, s_z, spec.detector.unitary, beta)
        d_trace = distinguishability_trace_norms(spec.detector.unitary, omega_a, omega_b)
        codes = _outcomes(bloch_lam, den, omega_a, omega_b, scan)
    lit = codes == 0
    table = np.column_stack([v, v_scan, d, d_trace, residual, omega_a, omega_b])
    formatted = _format_numbers(np.concatenate([params, table[lit].ravel()]))
    fields = np.zeros((params.size, 8), formatted.dtype)
    fields[:, 0] = formatted[: params.size]
    fields[lit, 1:] = formatted[params.size :].reshape(-1, 7)
    blank = ~lit
    columns = (c[blank].tolist() for c in np.broadcast_arrays(codes, bloch_lam, omega_a, omega_b))
    sys.stderr.write("".join(
        f"warning: {spec.swept}={param.decode()} is degenerate"
        f" ({OUTCOMES[code][1].format(lam=raw_lam, omega_a=w_a, omega_b=w_b)})\n"
        for param, code, raw_lam, w_a, w_b in zip(fields[blank, 0].tolist(), *columns)
    ))
    return f"{SWEEP_HEADER}\n" + _csv_lines(fields)


# --- figure presets -----------------------------------------------------------

_BETA_CURVES = (("beta=pi/4", math.pi / 4), ("beta=pi/2", math.pi / 2), ("beta=3pi/4", 3 * math.pi / 4))
_SX_CURVES = (("sx=-0.5", -0.5), ("sx=0", 0.0), ("sx=0.5", 0.5))


def _figure_table(quantity: str, swept: str, points, param_text, lam: float, a_overlap: float) -> str:
    """One preset family: V or D over s_x (three betas) or beta (three s_x)."""
    curves = _BETA_CURVES if swept == "s_x" else _SX_CURVES
    values = []
    for _, fixed in curves:
        s_x, beta = (points, fixed) if swept == "s_x" else (fixed, points)
        sin_beta, den = port_terms(s_x, beta)
        if quantity == "V":
            yz = np.sqrt(np.maximum(lam - s_x * s_x, 0.0))
            values.append(visibility_kernel(yz, a_overlap, sin_beta, den).clip(0.0, 1.0))
        else:
            values.append(distinguishability_kernel(s_x, a_overlap, sin_beta, den))
    # One format pass over the table's values; the params come formatted.
    fields = np.empty((len(curves), FIGURE_POINTS, 3), param_text.dtype)
    fields[:, :, 0] = np.array([label for label, _ in curves], "S")[:, None]
    fields[:, :, 1] = param_text
    fields[:, :, 2] = _format_numbers(np.stack(values)).reshape(len(curves), FIGURE_POINTS)
    return f"curve,param,{quantity}_closed\n" + _csv_lines(fields.reshape(-1, 3))


def figure_tables() -> dict[str, str]:
    """The eight bundled preset curve families as CSV text, keyed by file stem."""
    third, mixed = 1.0 / 3.0, 9.0 / 25.0
    edge = math.sqrt(mixed)
    # The three distinct grids, formatted once for all their tables.
    ranges = ((-edge, edge), (-1.0, 1.0), (0.0, math.pi))
    grids = np.array([np.linspace(lo, hi, FIGURE_POINTS) for lo, hi in ranges])
    sx_mixed, sx_pure, betas = zip(grids, _format_numbers(grids).reshape(grids.shape))
    return {
        "fig2a": _figure_table("V", "s_x", *sx_mixed, lam=mixed, a_overlap=third),
        "fig2b": _figure_table("V", "beta", *betas, lam=mixed, a_overlap=third),
        "fig2c": _figure_table("V", "s_x", *sx_pure, lam=1.0, a_overlap=third),
        "fig2d": _figure_table("V", "beta", *betas, lam=1.0, a_overlap=third),
        "fig3a": _figure_table("D", "s_x", *sx_pure, lam=1.0, a_overlap=third),
        "fig3b": _figure_table("D", "beta", *betas, lam=1.0, a_overlap=third),
        "fig3c": _figure_table("D", "s_x", *sx_pure, lam=1.0, a_overlap=0.8),
        "fig3d": _figure_table("D", "beta", *betas, lam=1.0, a_overlap=0.8),
    }


def _write_text(path, text: str) -> None:
    """Write text as ASCII with LF line ends, over an existing file in place.

    A regular file is cut to length after the write, not by O_TRUNC at open,
    which on ext4 waits for the old contents' writeback."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as handle:
        handle.write(text.encode("ascii"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


# --- subcommand handlers --------------------------------------------------------


def _cmd_report(args) -> int:
    state = BlochState(args.sx, args.sy, args.sz)
    det = DetectorConfig(args.a_overlap, args.gamma, args.delta)
    beta = BeamSplitterAngle(args.beta)
    report = duality_report(state, det, beta)
    weights = path_weights(state.s_x, beta)
    payload = {
        "visibility": report.visibility,
        "distinguishability": report.distinguishability,
        "v2_plus_d2": report.visibility**2 + report.distinguishability**2,
        "residual": report.residual,
        "omega_a": weights.omega_a,
        "omega_b": weights.omega_b,
    }
    print(json.dumps(payload))
    return 0


def _cmd_sweep(args) -> int:
    given = vars(args)
    spec = SweepSpec(**{f.name: given[f.name] for f in fields(SweepSpec) if f.name in given})
    _write_text(args.out, run_sweep(spec))
    return 0


def _cmd_figures(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    for stem, text in figure_tables().items():
        _write_text(os.path.join(args.out_dir, f"{stem}.csv"), text)
    return 0


def _cmd_verify(args) -> int:
    # The flags laid over the file; RunConfig checks every value and holds the defaults.
    settings: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                settings = json.load(handle)
            except ValueError as exc:  # undecodable bytes or malformed JSON
                raise InvalidInputError(f"config file is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(settings, dict):
            raise InvalidInputError("config file must hold a JSON object")
        unknown = set(settings) - {"seed", "draws", "tolerances"}
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
    tolerances = settings.setdefault("tolerances", {})
    if not isinstance(tolerances, dict):
        raise InvalidInputError("config tolerances must be a JSON object of name: value")
    for item in args.tolerance:
        name, _, value = item.partition("=")
        if not value:
            raise InvalidInputError(f"tolerance override must look like name=value: {item!r}")
        tolerances[name] = value
    for name in ("seed", "draws"):
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    summary = run_verification(RunConfig(**settings))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if all_passed(summary) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first main() call, not at import, and reused: parsing
    # leaves the parser unchanged (append copies its default list).
    parser = argparse.ArgumentParser(
        prog="mzi-duality",
        description=(
            "Fringe visibility, which-path distinguishability, and their "
            "complementarity in a two-path interferometer with an asymmetric "
            "output beam splitter. Angle options accept radians or pi "
            "notation such as pi/2 and 3pi/4."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="duality report for one parameter point")
    report.add_argument("--sx", type=float, default=0.0, help="Bloch s_x")
    report.add_argument("--sy", type=float, default=0.0, help="Bloch s_y")
    report.add_argument("--sz", type=float, default=0.0, help="Bloch s_z")
    report.add_argument("--A", dest="a_overlap", type=float, default=1.0,
                        help="detector overlap magnitude |<r|U|r>|")
    report.add_argument("--gamma", type=parse_angle, default=0.0, help="overlap phase")
    report.add_argument("--delta", type=parse_angle, default=0.0,
                        help="free off-diagonal phase of the marking unitary")
    report.add_argument("--beta", type=parse_angle, default=math.pi / 2,
                        help="recombining beam-splitter angle")
    report.set_defaults(handler=_cmd_report)

    # Each flag's dest is a SweepSpec field; one left out is absent from the
    # namespace, so SweepSpec's default holds.
    sweep = sub.add_parser("sweep", help="one-parameter sweep written as CSV",
                           argument_default=argparse.SUPPRESS)
    sweep.add_argument("--param", dest="swept", choices=["s_x", "sx", "beta"], required=True,
                       type=lambda text: "s_x" if text == "sx" else text,
                       help="which parameter to sweep")
    sweep.add_argument("--lo", type=parse_angle, required=True)
    sweep.add_argument("--hi", type=parse_angle, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--lam", type=float, required=True,
                       help="squared Bloch length, held fixed along the sweep")
    sweep.add_argument("--A", dest="a_overlap", type=float, required=True)
    sweep.add_argument("--beta", type=parse_angle,
                       help="fixed beta (required when sweeping s_x)")
    sweep.add_argument("--sx", dest="s_x", metavar="SX", type=float,
                       help="fixed s_x (required when sweeping beta)")
    sweep.add_argument("--gamma", type=parse_angle)
    sweep.add_argument("--delta", type=parse_angle)
    sweep.add_argument("--yz-angle", dest="yz_angle", type=parse_angle,
                       help="direction of the (s_y, s_z) share of lam")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(handler=_cmd_sweep)

    figures = sub.add_parser("figures", help="write the eight bundled preset CSVs")
    figures.add_argument("--out-dir", dest="out_dir", required=True)
    figures.set_defaults(handler=_cmd_figures)

    verify = sub.add_parser("verify", help="run the randomized verification suites")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--draws", type=int, default=None)
    verify.add_argument("--config", default=None, help="JSON file with seed/draws/tolerances")
    verify.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=VALUE", help="per-suite tolerance override")
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DualityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
