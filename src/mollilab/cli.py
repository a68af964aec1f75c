"""Command-line experiments on mollified metrics.

Subcommands: curvature tables, the mollification deviation-scaling
experiment, chart-norm reports, the kernel inequality suite, and cover
checking.  All experiments are deterministic for a fixed config and seed;
CSV output uses 12 significant digits and LF line endings, and nothing is
written when the config is rejected.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy import ndimage

from .atlas import assemble_mollified, check_cover, make_bump_weights
from .curvature import (VectorSection, riem_contract_field, riemann,
                        scalar_curvature, sec_extreme_fields, section_norm_fields)
from .kernels import kernel_lq_bound, kernel_lq_norm, make_bump, scale_kernel, convolve
from .lattice import ScalarField, make_lattice, sample_scalar
from .modelzoo import get_geometry, parse_atlas_file
from .norms import check_N0, holder_chart_report, holder_seminorm, sobolev_condition

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3

NOISE_FLOOR = 1e-9
LEMMA_SLACK = 1.05


class ConfigError(ValueError):
    """Raised for invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: str = "flat2"
    R: float = 1.0
    amp: float = 0.3
    m: int = 81
    t: float | None = None
    t_min: float | None = None
    t_max: float | None = None
    t_count: int = 8
    alpha: float = 0.6
    p: float = 8.0
    order: int = 1
    interval_slack: float = 1.0
    seed: int = 0
    out: str | None = None
    atlas_file: str | None = None

    def scales(self, r: float) -> list[float]:
        if self.t_min is None or self.t_max is None:
            raise ConfigError("scale sweep requires t_min and t_max")
        if not 0.0 < self.t_min <= self.t_max:
            raise ConfigError("need 0 < t_min <= t_max")
        if self.t_max > r / 2.0:
            raise ConfigError(f"t_max={self.t_max} exceeds r/2={r / 2.0}")
        if self.t_count < 5:
            raise ConfigError(f"scale sweep needs at least 5 scales, got {self.t_count}")
        return list(np.geomspace(self.t_min, self.t_max, self.t_count))

    def validate_common(self) -> None:
        if self.m < 5 or self.m % 2 == 0:
            raise ConfigError(f"m must be odd and >= 5, got {self.m}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.p <= 1.0:
            raise ConfigError(f"p must exceed 1, got {self.p}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def load_config_file(path) -> dict:
    """key=value lines; '#' starts a comment; keys may use '-' or '_'."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep or not key.strip():
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


_FIELD_TYPES = {
    "geometry": str, "R": float, "amp": float, "m": int, "t": float,
    "t_min": float, "t_max": float, "t_count": int, "alpha": float,
    "p": float, "order": int, "interval_slack": float,
    "seed": int, "out": str, "atlas_file": str,
}


def apply_overrides(cfg: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    values = {}
    for key, raw in overrides.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return replace(cfg, **values)


# ---------------------------------------------------------------------------
# formatting

def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_text(path, text: str) -> None:
    """Write to stdout, or to `path` with LF line endings."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def write_csv(path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def _geometry(cfg: ExperimentConfig):
    try:
        return get_geometry(cfg.geometry, R=cfg.R, amp=cfg.amp, alpha=cfg.alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# curvature tables

def run_curvature(cfg: ExperimentConfig):
    """Per-node curvature of each chart metric and, when t is set, of g^[t]."""
    cfg.validate_common()
    geo = _geometry(cfg)
    lat = geo.chart_lattice(cfg.m)
    samples = geo.sample_all(cfg.m)
    mollified = None
    if cfg.t is not None:
        if not 0.0 < cfg.t < geo.r / 2.0:
            raise ConfigError(f"t={cfg.t} outside (0, r/2)")
        kernel = scale_kernel(make_bump(geo.n), cfg.t, lat.h)
        mollified = assemble_mollified(geo.atlas, samples, kernel)
    header = ["chart", "node", *(f"x{k}" for k in range(geo.n)),
              "sec_min", "sec_max", "scalar"]
    if mollified is not None:
        header += ["sec_min_t", "sec_max_t", "scalar_t"]
    rows = []
    X = lat.coords()
    for cid, g in sorted(samples.items()):
        R = riemann(g)
        lo, hi = sec_extreme_fields(g, R)
        sc = scalar_curvature(g, R)
        blocks = [(R.mask, lo, hi, sc)]
        if mollified is not None:
            gt = mollified[cid]
            Rt = riemann(gt)
            lot, hit = sec_extreme_fields(gt, Rt)
            sct = scalar_curvature(gt, Rt)
            blocks.append((Rt.mask, lot, hit, sct))
        valid = blocks[0][0]
        if len(blocks) == 2:
            valid = valid & blocks[1][0]
        nodes = ["/".join(map(str, node)) for node in np.argwhere(valid).tolist()]
        values = np.column_stack([X[valid]] + [field[valid] for _, *fs in blocks
                                               for field in fs]).tolist()
        rows += ([cid, node, *vals] for node, vals in zip(nodes, values))
    return header, rows


def cmd_curvature(cfg: ExperimentConfig) -> int:
    header, rows = run_curvature(cfg)
    write_csv(cfg.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# deviation experiment

def _coordinate_sections(n: int) -> list[VectorSection]:
    eye = np.eye(n)
    return [VectorSection(v=eye[s], w1=eye[mu], w2=eye[nu], xi=eye[rho])
            for s, mu, nu, rho in itertools.product(range(n), repeat=4) if mu != nu]


def _random_sections(n: int, count: int, seed: int) -> list[VectorSection]:
    rng = np.random.Generator(np.random.Philox(key=seed))
    raw = rng.standard_normal((count, 4, n))
    return [VectorSection(v=raw[k, 0], w1=raw[k, 1], w2=raw[k, 2], xi=raw[k, 3])
            for k in range(count)]


def _ball_filter(values: np.ndarray, steps: int, mode: str) -> np.ndarray:
    """Max-norm ball sup/inf over lattice nodes within `steps` nodes."""
    size = 2 * steps + 1
    filt = ndimage.maximum_filter if mode == "max" else ndimage.minimum_filter
    return filt(values, size=size, mode="nearest")


def _interval_distance(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(lo - x, x - hi), 0.0)


@dataclass(frozen=True)
class DeviationRecord:
    t: float
    riem_excess: float
    sec_excess: float


def run_deviation(cfg: ExperimentConfig):
    """Scale sweep of the one-sided curvature deviations of g^[t]."""
    cfg.validate_common()
    geo = _geometry(cfg)
    scales = cfg.scales(geo.r)
    lat = geo.chart_lattice(cfg.m)
    samples = geo.sample_all(cfg.m)
    cid = geo.atlas.charts[0].id
    g = samples[cid]
    Q = check_N0(g)

    base_R = riemann(g)
    lo0, hi0 = sec_extreme_fields(g, base_R)
    lo0 = np.where(base_R.mask, lo0, np.inf)
    hi0 = np.where(base_R.mask, hi0, -np.inf)
    sections = _coordinate_sections(geo.n) + _random_sections(geo.n, 8, cfg.seed)
    base_contr = [np.where(base_R.mask, c, -np.inf)
                  for c in riem_contract_field(base_R, g, sections)]
    norm_fields = [np.maximum(nf, 1e-30) for nf in section_norm_fields(g, sections)]
    probe = lat.ball_mask(geo.r / 4.0, norm="max")

    records = []
    for t in scales:
        kernel = scale_kernel(make_bump(geo.n), t, lat.h)
        gt = assemble_mollified(geo.atlas, samples, kernel)[cid]
        Rt = riemann(gt)
        region = probe & Rt.mask & base_R.mask
        if not region.any():
            raise ValueError(f"probe region empty at scale t={t}")

        # one-sided Riemann excess against the ball sup of the raw curvature
        steps = math.ceil(math.exp(Q) * t / lat.h) + 1
        r_exc = 0.0
        contr = riem_contract_field(Rt, gt, sections)
        for at, b0, nf in zip(contr, base_contr, norm_fields):
            sup0 = _ball_filter(b0, steps, "max")
            exc = (at - sup0) / nf
            r_exc = max(r_exc, float(exc[region].max()))

        # sectional extremes against the inflated reference interval
        steps_sec = math.ceil(t / lat.h) + 1
        lot, hit = sec_extreme_fields(gt, Rt)
        lo_ball = _ball_filter(lo0, steps_sec, "min")
        hi_ball = _ball_filter(hi0, steps_sec, "max")
        c = cfg.interval_slack * t
        cand = np.stack([lo_ball * (1 - c), lo_ball * (1 + c),
                         hi_ball * (1 - c), hi_ball * (1 + c)])
        ilo, ihi = cand.min(axis=0), cand.max(axis=0)
        d = np.maximum(_interval_distance(lot, ilo, ihi),
                       _interval_distance(hit, ilo, ihi))
        s_exc = float(d[region].max())
        records.append(DeviationRecord(t=t, riem_excess=r_exc, sec_excess=s_exc))

    summary = fit_excess_decay([r.t for r in records], [r.sec_excess for r in records],
                               floor=NOISE_FLOOR)
    return records, summary


def fit_excess_decay(ts, excesses, floor: float = NOISE_FLOOR) -> dict:
    """Log-log slope of the excesses that sit above the noise floor."""
    ts = np.asarray(ts, dtype=float)
    ex = np.asarray(excesses, dtype=float)
    keep = ex > floor
    if keep.sum() < 2:
        return {"fit": "excess at noise floor; exponent fit skipped",
                "slope": None, "intercept": None, "residual": None}
    logt = np.log(ts[keep])
    loge = np.log(ex[keep])
    (slope, intercept), res = np.polyfit(logt, loge, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return {"fit": "ok", "slope": float(slope), "intercept": float(intercept),
            "residual": residual}


def cmd_deviation(cfg: ExperimentConfig) -> int:
    records, summary = run_deviation(cfg)
    header = ["t", "riem_excess", "sec_excess", "fit", "slope", "intercept", "residual"]
    rows = []
    for k, rec in enumerate(records):
        tail = ["", "", "", ""]
        if k == 0:
            tail = [summary["fit"]] + ["" if summary[key] is None else fmt(summary[key])
                                       for key in ("slope", "intercept", "residual")]
        rows.append([rec.t, rec.riem_excess, rec.sec_excess, *tail])
    write_csv(cfg.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# chart norms

def run_norms(cfg: ExperimentConfig) -> str:
    cfg.validate_common()
    geo = _geometry(cfg)
    samples = geo.sample_all(cfg.m)
    parts = []
    for cid, g in sorted(samples.items()):
        hol = holder_chart_report(g, cfg.order, cfg.alpha)
        per_order, scaled = sobolev_condition(g, cfg.order, cfg.p)
        parts.append(f"[chart {cid}]\n" + hol.to_text()
                     + f"sobolev_Q={max(scaled, hol.N0_Q):.12g}\n"
                     + "".join(f"sobolev_order{k}={per_order[k]:.12g}\n"
                               for k in range(cfg.order + 1)))
    return "\n".join(parts)


def cmd_norms(cfg: ExperimentConfig) -> int:
    write_text(cfg.out, run_norms(cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemma suite

def _lemma_family(n: int, r: float, m: int, alpha: float, seed: int, count: int = 20):
    """Deterministic test pairs (f, a): smooth-ish f and alpha-Hoelder a."""
    lat = make_lattice(n, r, m)
    rng = np.random.Generator(np.random.Philox(key=seed))
    pairs = []

    def from_fn(ffn, afn):
        return (sample_scalar(ffn, lat), sample_scalar(afn, lat))

    pairs.append(from_fn(lambda X: np.ones(X.shape[:-1]),
                         lambda X: np.ones(X.shape[:-1])))
    pairs.append(from_fn(lambda X: np.sin(X[..., 0]),
                         lambda X: np.abs(X[..., 0]) ** alpha))
    pairs.append(from_fn(lambda X: np.sqrt((X**2).sum(-1)) ** (1.0 + alpha),
                         lambda X: np.cos(X[..., 1])))
    while len(pairs) < count:
        w = rng.uniform(0.5, 3.0, size=(2, n))
        ph = rng.uniform(0, 2 * np.pi, size=2)
        amp = rng.uniform(0.2, 1.5, size=2)
        c = rng.uniform(-r / 2, r / 2)
        kind = rng.integers(0, 2)

        def ffn(X, w=w[0], ph=ph[0], amp=amp[0]):
            return amp * np.sin((X * w).sum(-1) + ph)

        if kind == 0:
            def afn(X, w=w[1], ph=ph[1], amp=amp[1]):
                return amp * np.cos((X * w).sum(-1) + ph)
        else:
            def afn(X, c=c, amp=amp[1]):
                return amp * np.abs(X[..., 0] - c) ** alpha

        pairs.append(from_fn(ffn, afn))
    return lat, pairs


def run_lemmas(cfg: ExperimentConfig):
    """Four kernel inequalities over a seeded family of functions and scales.

    Rows: (lemma, index, t, lhs, rhs, ratio).  The sup-non-increase rows
    must have ratio <= 1 exactly; the rest allow 5 percent quadrature slack.
    """
    cfg.validate_common()
    n = 2
    r = 1.0
    lat, pairs = _lemma_family(n, r, cfg.m, cfg.alpha, cfg.seed)
    base = make_bump(n)
    q = cfg.p / (cfg.p - 1.0)
    scales = list(np.geomspace(4.0 * lat.h, r / 8.0, 5))

    # scale-independent quantities, computed once per test pair
    semis = [holder_seminorm(f, cfg.alpha) for f, _ in pairs]
    cas = [holder_seminorm(a, cfg.alpha) for _, a in pairs]
    flps = [float((np.sum(np.abs(f.values[f.mask]) ** cfg.p) * lat.h**n)
                  ** (1.0 / cfg.p)) for f, _ in pairs]

    rows = []
    for t in scales:
        kernel = scale_kernel(base, t, lat.h)
        lq = kernel_lq_norm(kernel, q)
        lq_bound = kernel_lq_bound(kernel, q)
        rows.append(("kernel_lq", -1, t, lq, lq_bound, lq / lq_bound))
        for idx, (f, a) in enumerate(pairs):
            pf = convolve(kernel, f)
            mask = pf.mask

            sup_in = float(np.abs(f.values[f.mask]).max())
            sup_out = float(np.abs(pf.values[mask]).max())
            rows.append(("sup_nonincrease", idx, t, sup_out, sup_in,
                         sup_out / sup_in if sup_in > 0 else 0.0))

            lhs = float(np.abs((f.values - pf.values))[mask].max())
            rhs = t ** cfg.alpha * semis[idx]
            rows.append(("holder_mollify", idx, t, lhs, rhs,
                         lhs / rhs if rhs > 0 else 0.0))

            af = ScalarField(lattice=lat, values=a.values * f.values, mask=f.mask)
            p_af = convolve(kernel, af)
            comm = float(np.abs(p_af.values - a.values * pf.values)[mask].max())
            rhs_c = (2.0 ** ((n + 1) / q) * cas[idx] * flps[idx]
                     * t ** (cfg.alpha - n / cfg.p))
            rows.append(("commutator", idx, t, comm, rhs_c,
                         comm / rhs_c if rhs_c > 0 else 0.0))
    return rows


def lemma_violations(rows) -> list:
    bad = []
    for lemma, idx, t, lhs, rhs, ratio in rows:
        limit = 1.0 if lemma == "sup_nonincrease" else LEMMA_SLACK
        if ratio > limit:
            bad.append((lemma, idx, t, lhs, rhs, ratio))
    return bad


def cmd_lemmas(cfg: ExperimentConfig) -> int:
    rows = run_lemmas(cfg)
    header = ["lemma", "index", "t", "lhs", "rhs", "ratio"]
    write_csv(cfg.out, header, list(rows))
    bad = lemma_violations(rows)
    if bad:
        for lemma, idx, t, lhs, rhs, ratio in bad:
            sys.stderr.write(f"violation: {lemma} index={idx} t={fmt(t)} "
                             f"lhs={fmt(lhs)} rhs={fmt(rhs)} ratio={fmt(ratio)}\n")
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# cover check

def run_cover(cfg: ExperimentConfig):
    cfg.validate_common()
    if cfg.atlas_file is not None:
        try:
            atlas, n = parse_atlas_file(cfg.atlas_file)
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"bad atlas file {cfg.atlas_file}: {exc}") from exc
        atlas = make_bump_weights(atlas, Q=0.0)
        lat = make_lattice(n, atlas.r, cfg.m)
    else:
        geo = _geometry(cfg)
        atlas = geo.atlas
        lat = geo.chart_lattice(cfg.m)
    report = check_cover(atlas, lat)
    X = lat.coords()
    sum_dev = 0.0
    for c in atlas.charts:
        rho, denom = atlas.weights(c.id, X)
        covered = lat.ball_mask(atlas.r / 2.0) & (denom >= 1.0 - 1e-9)
        total = sum(rho.values())
        if covered.any():
            sum_dev = max(sum_dev, float(np.abs(total - 1.0)[covered].max()))
    return report, sum_dev


def cmd_cover(cfg: ExperimentConfig) -> int:
    report, sum_dev = run_cover(cfg)
    write_text(cfg.out, f"covered={report.covered}\nN={report.N}\n"
                        f"partition_sum_dev={sum_dev:.12g}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="labcli",
                                 description="mollified-metric experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("curvature", "deviation", "norms", "lemmas", "cover-check"):
        p = sub.add_parser(name)
        # one flag per config field, e.g. t_min -> --t-min, with its default
        for f in fields(ExperimentConfig):
            p.add_argument("--" + f.name.replace("_", "-"), type=_FIELD_TYPES[f.name],
                           default=f.default)
        p.add_argument("--config", default=None,
                       help="key=value file; entries override flags")
    return ap


_COMMANDS = {
    "curvature": cmd_curvature,
    "deviation": cmd_deviation,
    "norms": cmd_norms,
    "lemmas": cmd_lemmas,
    "cover-check": cmd_cover,
}


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig(**{f.name: getattr(args, f.name)
                              for f in fields(ExperimentConfig)})
    if args.config is not None:
        cfg = apply_overrides(cfg, load_config_file(args.config))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        cfg.validate_common()
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
