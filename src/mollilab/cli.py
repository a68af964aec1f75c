"""Command-line experiments on mollified metrics.

Subcommands: curvature tables, the mollification deviation-scaling
experiment, chart-norm reports, the kernel inequality suite, and cover
checking.  All experiments are deterministic for a fixed config and seed;
CSV output uses 12 significant digits and LF line endings, and nothing is
written when the config is rejected.  Each run writes into one stream,
stdout or `--out`, opened before its first stage; `write_csv` writes a
table's rows into it one by one.
"""
from __future__ import annotations

import argparse
import errno
import io
import math
import os
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace

import numpy as np

from .atlas import assemble_mollified, check_cover
from .curvature import riemann, sec_extreme_fields, sec_spectrum
from .kernels import kernel_lq_bound, kernel_lq_norm, scale_kernel, convolve
from .lattice import Lattice, MetricField, ScalarField, fold, grow_box, make_lattice
from .modelzoo import get_geometry, parse_atlas_file
from .norms import chart_norm_report, check_N0, holder_seminorm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3

NOISE_FLOOR = 1e-9
LEMMA_SLACK = 1.05
LEMMA_PAIRS = 20
INTERVAL_SLACK = 1.0  # relative inflation of the reference interval, per unit t


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
    seed: int = 0
    out: str | None = None
    atlas_file: str | None = None

    def scales(self, r: float) -> list[float]:
        if self.t_min is None or self.t_max is None:
            raise ConfigError("scale sweep requires t_min and t_max")
        if not 0.0 < self.t_min <= self.t_max:
            raise ConfigError("need 0 < t_min <= t_max")
        if self.t_max >= r / 2.0:  # the last scale is t_max itself
            raise ConfigError(f"t_max={self.t_max} must lie below r/2={r / 2.0}")
        if self.t_count < 5:
            raise ConfigError(f"scale sweep needs at least 5 scales, got {self.t_count}")
        return list(np.geomspace(self.t_min, self.t_max, self.t_count))

    def validate_common(self) -> None:
        if self.m < 5 or self.m % 2 == 0:
            raise ConfigError(f"m must be odd and >= 5, got {self.m}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 1.0 < self.p < math.inf:
            raise ConfigError(f"p must lie in (1, inf), got {self.p}")
        if self.order < 0:
            raise ConfigError(f"order must be non-negative, got {self.order}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def load_config_file(path) -> dict:
    """key=value lines; '#' starts a comment; keys may use '-' or '_'."""
    out, lines = {}, {}
    with open(path) as fh:
        try:
            raws = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"bad config file {path}: {exc}") from None
    for lineno, raw in enumerate(raws, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key = key.strip().replace("-", "_")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        out[key], lines[key] = val.strip(), lineno
    return out


_ALL = ("curvature", "deviation", "norms", "lemmas", "cover-check")
_CHARTED = ("curvature", "deviation", "norms", "cover-check")  # the ones that build a geometry

# Each setting's type and the subcommands whose run_* reads it; a subcommand
# takes a flag or config key only for the settings it reads.  --seed stays on
# every subcommand, so one seeded argv runs any of them.
_SETTINGS = {
    "geometry": (str, _CHARTED), "R": (float, _CHARTED), "amp": (float, _CHARTED),
    "m": (int, _ALL), "t": (float, ("curvature",)), "t_min": (float, ("deviation",)),
    "t_max": (float, ("deviation",)), "t_count": (int, ("deviation",)),
    "alpha": (float, _ALL), "p": (float, ("norms", "lemmas")), "order": (int, ("norms",)),
    "seed": (int, _ALL), "out": (str, _ALL), "atlas_file": (str, ("cover-check",)),
}


def apply_overrides(cfg: ExperimentConfig, overrides: dict, command: str) -> ExperimentConfig:
    values = {}
    for key, raw in overrides.items():
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        kind, readers = _SETTINGS[key]
        if command not in readers:
            raise ConfigError(f"config key {key!r} is not read by {command}")
        try:
            values[key] = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return replace(cfg, **values)


# ---------------------------------------------------------------------------
# formatting

def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@contextmanager
def _staged(path):
    """The run's one output stream, open before the first stage: stdout, or
    a temporary file beside `path` that is moved onto `path` after the run,
    so that an unwritable path fails before any stage and a failed run
    leaves no file and an existing `path` as it was.  A `path` that names
    something other than a regular file (a device or a pipe) is opened as it
    stands.  Failing to open, write, flush, close or move the output is a
    ConfigError that names `path`, or stdout."""
    if path is None and sys.stdout is None:  # started with stdout closed
        raise ConfigError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    if path is not None and (not path or os.path.isdir(path)):
        code = errno.EISDIR if path else errno.ENOENT
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")
    tmp = None
    try:
        if path is None:
            yield sys.stdout
            sys.stdout.flush()
        elif os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", newline="\n") as out:
                yield out
        else:
            target = os.path.realpath(path)  # a symlink's file, which open(path, "w") would write
            head, name = os.path.split(target)
            fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=head)
            with os.fdopen(fd, "w", newline="\n") as out:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") would give
                yield out
            os.replace(tmp, target)
    except OSError as exc:
        if path is None:
            # stdout keeps what it could not write, and Python flushes it
            # again at exit: that flush goes to the null device instead (a
            # stream with no descriptor, such as a test's capture, is left be)
            with suppress(io.UnsupportedOperation):
                fd = sys.stdout.fileno()
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        raise ConfigError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)


@dataclass(frozen=True)
class Block:
    """Rows of a CSV table, held by column for `write_csv`.

    Each row is the literal `label` (when given), then its row of `nodes`
    (ints, shape (rows, n)) as n fields joined by '/' (when given), then
    one cell of each column.  A column holds cells of one kind: floats are
    written with %.12g, anything else with %s, as `fmt` writes them.
    """
    columns: list
    label: str | None = None
    nodes: np.ndarray | None = None


def write_csv(out, header: list, blocks: list) -> None:
    """The header, then each block's rows through one %-template, written
    into `out` row by row: no table is held as one string."""
    out.write(",".join(header) + "\n")
    for block in blocks:
        if not len(block.columns[0]):
            continue
        # arrays become Python scalars column by column, which format faster
        columns = [col.tolist() if isinstance(col, np.ndarray) else col
                   for col in block.columns]
        fields = ["%.12g" if isinstance(col[0], float) else "%s" for col in columns]
        if block.nodes is not None:
            fields.insert(0, "/".join(["%d"] * block.nodes.shape[1]))
            columns[:0] = block.nodes.T.tolist()
        if block.label is not None:
            fields.insert(0, block.label.replace("%", "%%"))
        out.writelines(map((",".join(fields) + "\n").__mod__, zip(*columns)))


def _geometry(cfg: ExperimentConfig):
    """The `--atlas-file` geometry when one is given, else `--geometry`
    (`config_from_args` refuses the two together)."""
    if cfg.atlas_file is not None:
        try:
            return parse_atlas_file(cfg.atlas_file)
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"bad atlas file {cfg.atlas_file}: {exc}") from exc
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
        kernel = scale_kernel(geo.n, cfg.t, lat.h)
        mollified = assemble_mollified(geo.atlas, samples, kernel)
    header = ["chart", "node", *(f"x{k}" for k in range(geo.n)),
              "sec_min", "sec_max", "scalar"]
    if mollified is not None:
        header += ["sec_min_t", "sec_max_t", "scalar_t"]
    blocks = []
    X = lat.coords()
    for cid, g in sorted(samples.items()):
        R = riemann(g)
        valid = R.mask
        fields = list(sec_extreme_fields(R))
        if mollified is not None:
            Rt = riemann(mollified[cid])
            if not Rt.mask.any():
                raise ValueError(f"chart {cid!r} keeps no valid node after riemann "
                                 f"of the mollified metric at t={cfg.t}")
            valid = valid & Rt.mask
            fields += sec_extreme_fields(Rt)
        columns = [X[..., k][valid] for k in range(geo.n)] + [f[valid] for f in fields]
        blocks.append(Block(columns=columns, label=cid, nodes=np.argwhere(valid)))
    return header, blocks


def cmd_curvature(cfg: ExperimentConfig, out) -> int:
    header, blocks = run_curvature(cfg)
    write_csv(out, header, blocks)
    return EXIT_OK


# ---------------------------------------------------------------------------
# deviation experiment

def _interval_distance(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.maximum(np.maximum(lo - x, x - hi), 0.0)


@dataclass(frozen=True)
class DeviationRecord:
    t: float
    riem_excess: float
    sec_excess: float


@dataclass(frozen=True)
class DeviationScale:
    """One scale of `deviation_sweep`: its record and the arrays on the
    window whose maxima over `region` the record holds.  `spec_env` and
    `sec_env` are the grown ball envelopes as stored (sup envelopes, then
    negated inf envelopes), which the next scale grows in place."""
    record: DeviationRecord
    lattice: Lattice
    region: np.ndarray
    evt: np.ndarray
    scalar: np.ndarray
    spec_env: np.ndarray
    sec_env: np.ndarray


def deviation_sweep(cfg: ExperimentConfig):
    """The scales of `run_deviation`, one `DeviationScale` each.

    Sampling and `check_N0` read the whole chart, since Q = N0_Q sets the
    spectrum envelope's radius e^Q t.  Every other stage runs on one
    centred window of the chart's lattice (`Lattice.trim`) that holds the
    nodes the records read.  A record is a max over the probe, the
    max-norm ball of radius r/4, and a probe node's values read nodes up to
    a reach away: the largest over the sweep of the kernel's node radius
    and of the spectrum envelope's box, ceil(e^Q t/h) + 1 nodes (the
    sectional envelope's, ceil(t/h) + 1, is no wider), plus 2 for the
    Riemann erosion.  The window is the probe widened by that reach, or the
    whole chart where it does not fit.  On it run the raw Riemann tensor
    and spectrum, the envelopes, and at each scale `convolve`, the gluing
    of this one chart (`assemble_mollified`), `riemann` and `sec_spectrum`;
    the records are the whole chart's bit for bit.  The checks inside those
    stages (the gluing's metric check, Jacobi's convergence) read the
    window's nodes alone.
    """
    cfg.validate_common()
    geo = _geometry(cfg)
    scales = cfg.scales(geo.r)
    lat = geo.chart_lattice(cfg.m)
    samples = geo.sample_all(cfg.m)
    cid = geo.atlas.charts[0].id
    g = samples[cid]
    Q = check_N0(g)

    kernels = [scale_kernel(geo.n, t, lat.h) for t in scales]
    # box steps of the spectrum envelope at each scale, for the radius e^Q t
    steps = [math.ceil(math.exp(Q) * t / lat.h) + 1 for t in scales]
    probe = lat.ball_mask(geo.r / 4.0, norm="max")
    half = int(np.argwhere(probe).max()) - (cfg.m - 1) // 2  # the probe's half-width
    reach = max(max(k.radius, s) for k, s in zip(kernels, steps))
    trim = max((cfg.m - 1) // 2 - (half + reach + 2), 0)
    win = replace(lat, trim=trim)
    crop = (slice(trim, cfg.m - trim),) * geo.n
    samples = {**samples, cid: MetricField(lattice=win, comps=g.comps[crop], mask=g.mask[crop])}
    probe = probe[crop]

    base_R = riemann(samples[cid])
    ev0, _ = sec_spectrum(base_R)
    # the sup envelope of sec_max, then the negated inf envelope of sec_min
    sec_ball = np.where(base_R.mask[..., None],
                        np.stack([ev0[..., -1], -ev0[..., 0]], axis=-1), -np.inf)
    # the sup envelope of each k_i, then the negated inf envelope of each
    spec_ball = np.where(base_R.mask[..., None], np.concatenate([ev0, -ev0], axis=-1), -np.inf)
    nev = ev0.shape[-1]  # eigenvalues per node, n(n-1)/2
    sec_buf, spec_buf = np.empty_like(sec_ball), np.empty_like(spec_ball)
    grown = grown_sec = 0  # box steps already applied to each envelope

    for t, kernel, step in zip(scales, kernels, steps):
        Rt = riemann(assemble_mollified(geo.atlas, samples, kernel, charts=(cid,))[cid])
        region = probe & Rt.mask & base_R.mask
        if not region.any():
            raise ValueError(f"chart {cid!r} keeps no valid probe node after riemann "
                             f"of the mollified metric at t={t}")
        evt, scalar = sec_spectrum(Rt)

        # spectrum excess against the ball interval of each raw eigenvalue
        while grown < step:
            grow_box(spec_ball, spec_buf, geo.n)
            grown += 1
        d = _interval_distance(evt, -spec_ball[..., nev:], spec_ball[..., :nev])
        r_exc = float(d[region].max())

        # sectional extremes against the inflated reference interval
        steps_sec = math.ceil(t / lat.h) + 1
        while grown_sec < steps_sec:
            grow_box(sec_ball, sec_buf, geo.n)
            grown_sec += 1
        lot, hit = evt[..., 0], evt[..., -1]
        hi_ball, lo_ball = sec_ball[..., 0], -sec_ball[..., 1]
        c = INTERVAL_SLACK * t
        cand = np.stack([lo_ball * (1 - c), lo_ball * (1 + c),
                         hi_ball * (1 - c), hi_ball * (1 + c)])
        ilo, ihi = cand.min(axis=0), cand.max(axis=0)
        d = np.maximum(_interval_distance(lot, ilo, ihi),
                       _interval_distance(hit, ilo, ihi))
        s_exc = float(d[region].max())
        yield DeviationScale(record=DeviationRecord(t=t, riem_excess=r_exc, sec_excess=s_exc),
                             lattice=win, region=region, evt=evt, scalar=scalar,
                             spec_env=spec_ball, sec_env=sec_ball)


def run_deviation(cfg: ExperimentConfig):
    """Scale sweep of the one-sided curvature deviations of g^[t].

    `riem_excess` is the spectrum excess: the largest distance of any sorted
    eigenvalue k_i of the pencil (R^[t], Lambda^2 g^[t]) from the interval
    [min k_i, max k_i] of the raw metric's i-th eigenvalue over the ball of
    radius e^Q t about the node.  `sec_excess` is the distance of the
    mollified sectional extremes from the raw ones' interval over the ball
    of radius t, inflated by INTERVAL_SLACK t.  Both are maxima over the
    probe, the max-norm ball of radius r/4.  The ball envelopes of the
    raw fields are built once and grown in place by `grow_box` as the
    radius grows with t; they are exact, since max and negation are and a
    clipped box equals the edge-replicating filter.  Each scale computes
    only the nodes its record reads, on one window of the chart
    (`deviation_sweep`)."""
    records = [scale.record for scale in deviation_sweep(cfg)]
    summary = fit_excess_decay([r.t for r in records], [r.sec_excess for r in records])
    return records, summary


def fit_excess_decay(ts, excesses) -> dict:
    """Log-log slope of the excesses that sit above NOISE_FLOOR."""
    ts = np.asarray(ts, dtype=float)
    ex = np.asarray(excesses, dtype=float)
    keep = ex > NOISE_FLOOR
    if keep.sum() < 2:
        return {"fit": "excess at noise floor; exponent fit skipped",
                "slope": None, "intercept": None, "residual": None}
    logt = np.log(ts[keep])
    loge = np.log(ex[keep])
    (slope, intercept), res = np.polyfit(logt, loge, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return {"fit": "ok", "slope": float(slope), "intercept": float(intercept),
            "residual": residual}


def cmd_deviation(cfg: ExperimentConfig, out) -> int:
    records, summary = run_deviation(cfg)
    header = ["t", "riem_excess", "sec_excess", "fit", "slope", "intercept", "residual"]
    tail = [summary["fit"]] + ["" if summary[key] is None else fmt(summary[key])
                               for key in ("slope", "intercept", "residual")]
    blank = [""] * (len(records) - 1)  # the fit is reported on the first row only
    columns = [[rec.t for rec in records], [rec.riem_excess for rec in records],
               [rec.sec_excess for rec in records], *([cell, *blank] for cell in tail)]
    write_csv(out, header, [Block(columns=columns)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# chart norms

def run_norms(cfg: ExperimentConfig) -> str:
    cfg.validate_common()
    if cfg.m < 2 * cfg.order + 1:
        raise ConfigError(f"order {cfg.order} needs m >= {2 * cfg.order + 1}, got m={cfg.m}")
    geo = _geometry(cfg)
    samples = geo.sample_all(cfg.m)
    return "\n".join(f"[chart {cid}]\n"
                     + chart_norm_report(g, cfg.order, cfg.alpha, cfg.p).to_text()
                     for cid, g in sorted(samples.items()))


def cmd_norms(cfg: ExperimentConfig, out) -> int:
    out.write(run_norms(cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemma suite

def _lemma_family(m: int, alpha: float, seed: int):
    """Deterministic test pairs (f, a) on the 2-d r=1 lattice, smooth-ish f and
    Hoelder a, sampled from one coordinate array into two stacks F and A
    (field axis: pair index); the coordinate sums are `fold`s, numpy's
    sums over the short last axis bit for bit."""
    lat = make_lattice(2, 1.0, m)
    rng = np.random.Generator(np.random.Philox(key=seed))
    X = lat.coords()
    F = np.empty(lat.shape + (LEMMA_PAIRS,))
    A = np.empty_like(F)
    F[..., 0] = A[..., 0] = 1.0
    F[..., 1], A[..., 1] = np.sin(X[..., 0]), np.abs(X[..., 0]) ** alpha
    F[..., 2], A[..., 2] = np.sqrt(fold(np.add, X**2)) ** (1.0 + alpha), np.cos(X[..., 1])
    for i in range(3, LEMMA_PAIRS):
        w = rng.uniform(0.5, 3.0, size=(2, lat.n))
        ph = rng.uniform(0, 2 * np.pi, size=2)
        amp = rng.uniform(0.2, 1.5, size=2)
        c = rng.uniform(-lat.r / 2, lat.r / 2)
        kind = rng.integers(0, 2)
        F[..., i] = amp[0] * np.sin(fold(np.add, X * w[0]) + ph[0])
        if kind == 0:
            A[..., i] = amp[1] * np.cos(fold(np.add, X * w[1]) + ph[1])
        else:
            A[..., i] = amp[1] * np.abs(X[..., 0] - c) ** alpha
    full = lat.full_mask()
    return (lat, ScalarField(lattice=lat, values=F, mask=full),
            ScalarField(lattice=lat, values=A, mask=full))


def run_lemmas(cfg: ExperimentConfig):
    """Four kernel inequalities over a seeded family of functions and scales.

    Rows: (lemma, index, t, lhs, rhs, ratio).  The sup-non-increase rows
    must have ratio <= 1 exactly; the rest allow 5 percent quadrature slack.
    All pairs run as one stack: one Hoelder scan for the f and one for the
    a, and at each scale one `convolve` of the f and one of the a f, whose
    cells each take one masked max over the stack.
    """
    cfg.validate_common()
    # the largest scale, r/8, must exceed h = 2r/(m - 1) on the r = 1 lattice
    if cfg.m <= 17:
        raise ConfigError(f"lemmas needs m >= 19, so that h < r/8, the largest scale; "
                          f"got m={cfg.m}")
    lat, F, A = _lemma_family(cfg.m, cfg.alpha, cfg.seed)
    n, r = lat.n, lat.r
    q = cfg.p / (cfg.p - 1.0)
    scales = list(np.geomspace(4.0 * lat.h, r / 8.0, 5))

    # scale-independent quantities, computed once per test pair
    semis = holder_seminorm(F.values[..., None], F.mask, lat.h, cfg.alpha).tolist()
    cas = holder_seminorm(A.values[..., None], A.mask, lat.h, cfg.alpha).tolist()
    # one contiguous row per pair, so that each row sums pairwise, as one pair alone does
    sums = np.sum(np.abs(np.ascontiguousarray(F.values[F.mask].T)) ** cfg.p, axis=-1)
    flps = [float((s * lat.h**n) ** (1.0 / cfg.p)) for s in sums]
    sup_in = F.sup_norm().tolist()
    AF = ScalarField(lattice=lat, values=A.values * F.values, mask=F.mask)

    rows = []
    for t in scales:
        kernel = scale_kernel(n, t, lat.h)
        lq = kernel_lq_norm(kernel, q)
        lq_bound = kernel_lq_bound(kernel, q)
        rows.append(("kernel_lq", -1, t, lq, lq_bound, lq / lq_bound))
        sup_out, lhs, comm = _mollified_cells(convolve(kernel, F), convolve(kernel, AF),
                                              F.values, A.values)
        for idx in range(LEMMA_PAIRS):
            rows.append(("sup_nonincrease", idx, t, sup_out[idx], sup_in[idx],
                         sup_out[idx] / sup_in[idx] if sup_in[idx] > 0 else 0.0))
            rhs = t ** cfg.alpha * semis[idx]
            rows.append(("holder_mollify", idx, t, lhs[idx], rhs,
                         lhs[idx] / rhs if rhs > 0 else 0.0))
            rhs_c = (2.0 ** ((n + 1) / q) * cas[idx] * flps[idx]
                     * t ** (cfg.alpha - n / cfg.p))
            rows.append(("commutator", idx, t, comm[idx], rhs_c,
                         comm[idx] / rhs_c if rhs_c > 0 else 0.0))
    return rows


def _mollified_cells(pf: ScalarField, p_af: ScalarField, f: np.ndarray,
                     a: np.ndarray) -> tuple:
    """Per pair, on the P_t mask: max |P_t f|, max |f - P_t f| and
    max |P_t(a f) - a P_t f|, each one masked max over the stack.  The
    mollified stacks are freed on return, before the next scale's."""
    mask = pf.mask
    pf, p_af = pf.values, p_af.values
    return (np.abs(pf[mask]).max(axis=0).tolist(),
            np.abs(f - pf)[mask].max(axis=0).tolist(),
            np.abs(p_af - a * pf)[mask].max(axis=0).tolist())


def lemma_violations(rows) -> list:
    bad = []
    for lemma, idx, t, lhs, rhs, ratio in rows:
        limit = 1.0 if lemma == "sup_nonincrease" else LEMMA_SLACK
        if ratio > limit:
            bad.append((lemma, idx, t, lhs, rhs, ratio))
    return bad


def cmd_lemmas(cfg: ExperimentConfig, out) -> int:
    rows = run_lemmas(cfg)
    header = ["lemma", "index", "t", "lhs", "rhs", "ratio"]
    write_csv(out, header, [Block(columns=list(zip(*rows)))])
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
    """Cover report of the `--atlas-file` atlas, or else of `--geometry`."""
    cfg.validate_common()
    geo = _geometry(cfg)
    return check_cover(geo.atlas, geo.chart_lattice(cfg.m))


def cmd_cover(cfg: ExperimentConfig, out) -> int:
    report = run_cover(cfg)
    out.write(f"covered={report.covered}\nN={report.N}\n"
              f"partition_sum_dev={report.partition_sum_dev:.12g}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_CONFIG instead of 2, which
    labcli reserves for numerical failure; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a flag has one spelling, as a config key does
    ap = _ArgumentParser(prog="labcli", description="mollified-metric experiments",
                         allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    for command in _ALL:
        p = sub.add_parser(command, allow_abbrev=False)
        # one flag per setting the subcommand reads, e.g. t_min -> --t-min;
        # an absent flag leaves the setting's ExperimentConfig default
        for name, (kind, readers) in _SETTINGS.items():
            if command in readers:
                p.add_argument("--" + name.replace("_", "-"), type=kind,
                               default=argparse.SUPPRESS)
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
    given = {k: v for k, v in vars(args).items() if k in _SETTINGS}
    cfg = ExperimentConfig(**given)
    if args.config is not None:
        overrides = load_config_file(args.config)
        cfg = apply_overrides(cfg, overrides, args.command)
        given.update(overrides)
    # a shipped model's settings beside an atlas file would be dropped without a word
    clash = [key for key in ("geometry", "R", "amp") if key in given]
    if "atlas_file" in given and clash:
        raise ConfigError(f"atlas_file and {clash[0]} cannot be given together: "
                          f"an atlas file is the whole geometry")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    try:
        with _staged(cfg.out) as out:
            return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (ValueError, FloatingPointError, np.linalg.LinAlgError, MemoryError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
