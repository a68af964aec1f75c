"""The deviation sweep on the whole chart, read only by the tests.

`whole_chart_sweep` is the sweep `cli.deviation_sweep` replaced: every
stage of every scale on the chart's whole lattice, gluing every chart.  It
yields one `cli.DeviationScale` per scale, on the whole lattice, and is the
reference for the window sweep, whose records and whose arrays on the
probe region must equal these bit for bit.
"""
import math

import numpy as np

from mollilab import cli
from mollilab.atlas import assemble_mollified
from mollilab.curvature import riemann, sec_spectrum
from mollilab.kernels import scale_kernel
from mollilab.lattice import grow_box
from mollilab.norms import check_N0


def whole_chart_sweep(cfg):
    """The scales of `cli.deviation_sweep`, each stage on the whole chart."""
    cfg.validate_common()
    geo = cli._geometry(cfg)
    scales = cfg.scales(geo.r)
    lat = geo.chart_lattice(cfg.m)
    samples = geo.sample_all(cfg.m)
    cid = geo.atlas.charts[0].id
    g = samples[cid]
    Q = check_N0(g)

    base_R = riemann(g)
    ev0, _ = sec_spectrum(base_R)
    sec_ball = np.where(base_R.mask[..., None],
                        np.stack([ev0[..., -1], -ev0[..., 0]], axis=-1), -np.inf)
    spec_ball = np.where(base_R.mask[..., None], np.concatenate([ev0, -ev0], axis=-1), -np.inf)
    nev = ev0.shape[-1]
    probe = lat.ball_mask(geo.r / 4.0, norm="max")
    sec_buf, spec_buf = np.empty_like(sec_ball), np.empty_like(spec_ball)
    grown = grown_sec = 0

    for t in scales:
        kernel = scale_kernel(geo.n, t, lat.h)
        Rt = riemann(assemble_mollified(geo.atlas, samples, kernel)[cid])
        region = probe & Rt.mask & base_R.mask
        if not region.any():
            raise ValueError(f"chart {cid!r} keeps no valid probe node after riemann "
                             f"of the mollified metric at t={t}")
        evt, scalar = sec_spectrum(Rt)

        steps = math.ceil(math.exp(Q) * t / lat.h) + 1
        while grown < steps:
            grow_box(spec_ball, spec_buf, geo.n)
            grown += 1
        d = cli._interval_distance(evt, -spec_ball[..., nev:], spec_ball[..., :nev])
        r_exc = float(d[region].max())

        steps_sec = math.ceil(t / lat.h) + 1
        while grown_sec < steps_sec:
            grow_box(sec_ball, sec_buf, geo.n)
            grown_sec += 1
        lot, hit = evt[..., 0], evt[..., -1]
        hi_ball, lo_ball = sec_ball[..., 0], -sec_ball[..., 1]
        c = cli.INTERVAL_SLACK * t
        cand = np.stack([lo_ball * (1 - c), lo_ball * (1 + c),
                         hi_ball * (1 - c), hi_ball * (1 + c)])
        ilo, ihi = cand.min(axis=0), cand.max(axis=0)
        d = np.maximum(cli._interval_distance(lot, ilo, ihi),
                       cli._interval_distance(hit, ilo, ihi))
        s_exc = float(d[region].max())
        yield cli.DeviationScale(
            record=cli.DeviationRecord(t=t, riem_excess=r_exc, sec_excess=s_exc),
            lattice=lat, region=region, evt=evt, scalar=scalar,
            spec_env=spec_ball, sec_env=sec_ball)
