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
import sys
from dataclasses import dataclass, field

import numpy as np

from .duality import (
    DARK_PORT,
    closed_form_lengths,
    distinguishability_kernel,
    distinguishability_trace_norms,
    duality_report,
    path_weights,
    port_is_dark,
    residual_kernel,
    visibility_kernel,
    visibility_scans,
    weights_kernel,
    weights_message,
)
from .errors import DualityError, InvalidInputError, require_finite, require_in_range
from .interferometer import (
    BLOCH_NORM_TOL,
    BeamSplitterAngle,
    BlochState,
    DetectorConfig,
    _yz_norms,
    bloch_length_message,
    port_terms,
)
from .verify import RunConfig, all_passed, run_verification

SWEEP_HEADER = "param,V_closed,V_scan,D_closed,D_trace,residual,omega_a,omega_b"
FIGURE_POINTS = 501

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


def _fmt(value: float) -> str:
    # 17 significant digits round-trip any double exactly.
    return format(value, ".17g")


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


def run_sweep(spec: SweepSpec) -> list[str]:
    """CSV lines (header first) for the sweep; degenerate points get empty fields.

    Every column is computed for all rows at once. A row is left blank, with
    a warning on stderr, where the scalar API would raise: the rules run in
    its order (Bloch length, dark port, path weights, then the scan), and the
    warning quotes the first one that fails.
    """
    params = spec.grid()
    fixed = np.full_like(params, spec.beta if spec.swept == "s_x" else spec.s_x)
    s_x, beta = (params, fixed) if spec.swept == "s_x" else (fixed, params)
    # The input state of each row, as BlochState would hold it.
    r = np.sqrt(np.maximum(spec.lam - s_x * s_x, 0.0))
    s_y, s_z = r * math.sin(spec.yz_angle), r * math.cos(spec.yz_angle)
    bloch_lam = s_x * s_x + s_y * s_y + s_z * s_z
    kernel_lam, yz = closed_form_lengths(s_x, bloch_lam, _yz_norms(s_y, s_z))
    a = spec.a_overlap
    sin_beta, den = port_terms(s_x, beta)
    # Rows at the dark port divide by a zero denominator; they are blanked.
    with np.errstate(divide="ignore", invalid="ignore"):
        omega_a, omega_b = weights_kernel(s_x, beta, den)
        v_scan, scanned = visibility_scans(s_x, s_y, s_z, spec.detector.unitary, beta)
        columns = np.column_stack([
            visibility_kernel(yz, a, sin_beta, den).clip(0.0, 1.0),
            v_scan,
            distinguishability_kernel(s_x, a, sin_beta, den),
            distinguishability_trace_norms(spec.detector.unitary, omega_a, omega_b),
            residual_kernel(kernel_lam, a, sin_beta, den),
            omega_a,
            omega_b,
        ])
    lines = [SWEEP_HEADER]
    rules = zip(bloch_lam.tolist(), den.tolist(), omega_a.tolist(), omega_b.tolist(), scanned.tolist())
    for value, row, (lam, den_row, w_a, w_b, defined) in zip(params.tolist(), columns.tolist(), rules):
        # path_weights' |s_x| <= 1 check cannot fail once the Bloch length holds.
        reason = (
            bloch_length_message(lam)
            or (DARK_PORT if port_is_dark(den_row) else None)
            or weights_message(w_a, w_b)
            or (None if defined else DARK_PORT)
        )
        if reason is None:
            fields = [_fmt(v) for v in row]
        else:
            print(f"warning: {spec.swept}={_fmt(value)} is degenerate ({reason})", file=sys.stderr)
            fields = [""] * 7
        lines.append(",".join([_fmt(value)] + fields))
    return lines


# --- figure presets -----------------------------------------------------------

_BETA_CURVES = (("beta=pi/4", math.pi / 4), ("beta=pi/2", math.pi / 2), ("beta=3pi/4", 3 * math.pi / 4))
_SX_CURVES = (("sx=-0.5", -0.5), ("sx=0", 0.0), ("sx=0.5", 0.5))


def _figure_table(quantity: str, swept: str, lam: float, a_overlap: float) -> list[str]:
    """One preset family: V or D over s_x (three betas) or beta (three s_x)."""
    lines = [f"curve,param,{quantity}_closed"]
    if swept == "s_x":
        edge = math.sqrt(lam)
        grid, curves = np.linspace(-edge, edge, FIGURE_POINTS), _BETA_CURVES
    else:
        grid, curves = np.linspace(0.0, math.pi, FIGURE_POINTS), _SX_CURVES
    params = [_fmt(p) for p in grid.tolist()]
    for label, fixed in curves:
        s_x, beta = (grid, fixed) if swept == "s_x" else (fixed, grid)
        sin_beta, den = port_terms(s_x, beta)
        if quantity == "V":
            yz = np.sqrt(np.maximum(lam - s_x * s_x, 0.0))
            values = visibility_kernel(yz, a_overlap, sin_beta, den).clip(0.0, 1.0)
        else:
            values = distinguishability_kernel(s_x, a_overlap, sin_beta, den)
        lines += [f"{label},{p},{_fmt(v)}" for p, v in zip(params, values.tolist())]
    return lines


def figure_tables() -> dict[str, list[str]]:
    """The eight bundled preset curve families, keyed by file stem."""
    third = 1.0 / 3.0
    return {
        "fig2a": _figure_table("V", "s_x", lam=9.0 / 25.0, a_overlap=third),
        "fig2b": _figure_table("V", "beta", lam=9.0 / 25.0, a_overlap=third),
        "fig2c": _figure_table("V", "s_x", lam=1.0, a_overlap=third),
        "fig2d": _figure_table("V", "beta", lam=1.0, a_overlap=third),
        "fig3a": _figure_table("D", "s_x", lam=1.0, a_overlap=third),
        "fig3b": _figure_table("D", "beta", lam=1.0, a_overlap=third),
        "fig3c": _figure_table("D", "s_x", lam=1.0, a_overlap=0.8),
        "fig3d": _figure_table("D", "beta", lam=1.0, a_overlap=0.8),
    }


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


# --- subcommand handlers --------------------------------------------------------


def _cmd_report(args) -> int:
    state = BlochState(args.sx, args.sy, args.sz)
    det = DetectorConfig(args.a_overlap, args.gamma, args.delta)
    beta = BeamSplitterAngle(args.beta)
    report = duality_report(state, det, beta)
    weights = path_weights(args.sx, beta)
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
    spec = SweepSpec(
        swept=args.param,
        lo=args.lo,
        hi=args.hi,
        steps=args.steps,
        lam=args.lam,
        a_overlap=args.a_overlap,
        beta=args.beta,
        s_x=args.sx,
        gamma=args.gamma,
        delta=args.delta,
        yz_angle=args.yz_angle,
    )
    _write_lines(args.out, run_sweep(spec))
    return 0


def _cmd_figures(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    for stem, lines in figure_tables().items():
        _write_lines(os.path.join(args.out_dir, f"{stem}.csv"), lines)
    return 0


def _convert(kind, value, what: str):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must be {kind.__name__}, got {value!r}") from exc


def _config_int(value, what: str) -> int:
    # int() would truncate 2.9 and accept true as 1.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return _convert(int, value, what)


def _cmd_verify(args) -> int:
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
    tolerances = settings.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise InvalidInputError("config tolerances must be a JSON object of name: value")
    tolerances = {
        name: _convert(float, value, f"tolerance {name!r}") for name, value in tolerances.items()
    }
    for item in args.tolerance:
        name, _, value = item.partition("=")
        if not value:
            raise InvalidInputError(f"tolerance override must look like name=value: {item!r}")
        tolerances[name] = _convert(float, value, f"tolerance {name!r}")
    seed, draws = args.seed, args.draws
    if seed is None:
        seed = _config_int(settings.get("seed", 42), "seed")
    if draws is None:
        draws = _config_int(settings.get("draws", 1000), "draws")
    config = RunConfig(seed=seed, draws=draws, tolerances=tolerances)
    summary = run_verification(config)
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

    sweep = sub.add_parser("sweep", help="one-parameter sweep written as CSV")
    sweep.add_argument("--param", choices=["s_x", "sx", "beta"], required=True,
                       help="which parameter to sweep")
    sweep.add_argument("--lo", type=parse_angle, required=True)
    sweep.add_argument("--hi", type=parse_angle, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--lam", type=float, required=True,
                       help="squared Bloch length, held fixed along the sweep")
    sweep.add_argument("--A", dest="a_overlap", type=float, required=True)
    sweep.add_argument("--beta", type=parse_angle, default=None,
                       help="fixed beta (required when sweeping s_x)")
    sweep.add_argument("--sx", type=float, default=None,
                       help="fixed s_x (required when sweeping beta)")
    sweep.add_argument("--gamma", type=parse_angle, default=0.0)
    sweep.add_argument("--delta", type=parse_angle, default=0.0)
    sweep.add_argument("--yz-angle", dest="yz_angle", type=parse_angle, default=0.0,
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
    if getattr(args, "param", None) == "sx":
        args.param = "s_x"
    try:
        return args.handler(args)
    except (DualityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
